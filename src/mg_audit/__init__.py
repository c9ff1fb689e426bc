"""Audit masculine-generics bias in French corpora and LLM responses."""

__version__ = "0.1.0"
