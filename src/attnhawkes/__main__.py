"""``python -m attnhawkes``: the command line interface of ``attnhawkes.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
