import os

import pwpowers

# CLI tests run `python -m pwpowers` in subprocesses; point them at the
# package this process imported, so a plain checkout needs no install
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(pwpowers.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
)
