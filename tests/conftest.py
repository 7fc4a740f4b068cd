"""Fresh interpreters that tests start (C12, the CLI import check) import
multisearch from where this run does."""

import os

import multisearch

_root = os.path.dirname(os.path.dirname(multisearch.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_root, os.environ.get("PYTHONPATH")]))
