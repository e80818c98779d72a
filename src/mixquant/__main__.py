"""``python -m mixquant``: the ``mixquant`` command line."""

from .cli import entry

__all__: list[str] = []

if __name__ == "__main__":
    entry()
