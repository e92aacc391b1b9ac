"""``python -m effectfa``: the command-line front end."""

from .cli import main

main()
