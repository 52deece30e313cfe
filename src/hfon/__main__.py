"""`python -m hfon`: the same command line as the `hfon` script."""

from .cli import console_main

console_main()
