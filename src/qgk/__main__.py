"""``python -m qgk`` and the ``qgk`` script: a cache hit loads only _request and quiver."""

import sys

from ._request import serve


def _miss(args, quiver, entry) -> int:
    from .cli import answer  # loads the pipeline

    return answer(args, quiver, entry)


def main() -> None:
    sys.exit(serve(None, _miss))


if __name__ == "__main__":
    main()
