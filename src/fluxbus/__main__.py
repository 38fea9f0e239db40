"""``python -m fluxbus``: the ``fluxbus`` command line, for a source checkout
without the installed script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
