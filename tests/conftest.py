"""Suite-wide defaults.

The run ledger is on by default for real usage, but the test suite
must not append hundreds of records to the developer's actual cache
root — every engine call here would otherwise log itself.  Tests that
exercise the ledger opt back in explicitly (``ledger=True`` or a
monkeypatched ``REPRO_LEDGER``) against a tmp cache dir.

The cache root itself is *assigned* (not defaulted) to a session temp
dir that is removed when the session ends, so the suite exercises the
compiled-trace store exactly as users run it and still never writes to
the developer's real cache root.  Tests that need their own root
monkeypatch ``REPRO_CACHE_DIR`` or pass ``cache_dir=`` explicitly.
"""

import os
import shutil
import tempfile

os.environ.setdefault("REPRO_LEDGER", "off")


def pytest_configure(config):
    config.repro_cache_root = tempfile.mkdtemp(prefix="repro-test-cache-")
    os.environ["REPRO_CACHE_DIR"] = config.repro_cache_root


def pytest_unconfigure(config):
    shutil.rmtree(config.repro_cache_root, ignore_errors=True)
