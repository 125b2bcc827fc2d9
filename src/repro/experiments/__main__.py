"""Regenerate the paper's figures and tables from the command line.

    python -m repro.experiments              list the catalogue, each with its claim
    python -m repro.experiments fig8         run one figure at its quick scale, print it
"""

from __future__ import annotations

import argparse
import sys
import textwrap

from repro.experiments.figures import FIGURES


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one figure or table of the paper and print its text "
                    "rendering; with no name, list the catalogue.")
    parser.add_argument("name", nargs="?", choices=sorted(FIGURES))
    name = parser.parse_args(argv).name
    if name is None:
        for figure in FIGURES.values():
            title, body = figure.claim.split("\n", 1)
            print(f"{figure.name}: {title}")
            print(textwrap.fill(" ".join(body.split()), width=78,
                                initial_indent="    ", subsequent_indent="    "))
        return 0
    figure = FIGURES[name]
    print(figure.view(figure.run()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
