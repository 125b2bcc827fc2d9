"""Repository-level pytest configuration.

Ensures ``src/`` is importable even when the package has not been installed
(e.g. on offline machines where ``pip install -e .`` cannot build an editable
wheel); the canonical installation path is still ``pip install -e .`` /
``python setup.py develop``.  ``tests/oracles/`` holds what test files of
more than one directory compare against: replaced implementations and
reference models that state a behaviour (``hop_model``).
``tests/gates/`` is importable too, so ``tests/unit/test_lint.py`` tests the
determinism rules and recorder where the gates define them.
"""

import os
import sys

_ROOT = os.path.dirname(__file__)
for _path in (os.path.join(_ROOT, "src"), os.path.join(_ROOT, "tests", "oracles"),
              os.path.join(_ROOT, "tests", "gates")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
