"""``python -m spoilseg``: the command-line interface."""

from .cli import entry

if __name__ == "__main__":
    entry()
