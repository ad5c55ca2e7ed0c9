"""``python -m imptables``: the same command line as the ``imptables`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
