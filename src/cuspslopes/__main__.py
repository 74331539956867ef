"""Allow `python -m cuspslopes`."""

from .cli import entry

entry()
