"""The committed bits: every array of ``make_digests``' small fixed runs
against ``tests/digests.json``'s entry for the current numerics scheme.

In the environment that wrote the entry the SHA-256 digests must be
equal.  Elsewhere numpy's SIMD ``sin``, ``exp`` and the like may round
differently by an ulp, so the stored 17-digit values are checked to
1e-12 relative to max(|value|, 1).  The test prints which of the two
checks ran."""
import json

import numpy as np

import make_digests
from bridgesim.sde import NUMERICS_SCHEME


def test_runs_match_the_table_of_the_current_scheme(capsys):
    table = json.loads(make_digests.TABLE.read_text())
    assert str(NUMERICS_SCHEME) in table, (
        f"digests.json has no entry for numerics scheme {NUMERICS_SCHEME}; "
        f"a scheme bump rewrites it with tests/make_digests.py")
    want = table[str(NUMERICS_SCHEME)]
    got = make_digests.compute()
    same_env = want["environment"] == make_digests.environment()
    with capsys.disabled():
        print(f"\nnumerics scheme {NUMERICS_SCHEME}: "
              + ("recorded environment, SHA-256 digests compared"
                 if same_env else
                 "other environment, 17-digit values compared to 1e-12"))
    assert sorted(got) == sorted(want["digests"])
    for name, entry in want["digests"].items():
        mine = got[name]
        if same_env:
            assert mine["sha256"] == entry["sha256"], name
            continue
        assert mine["shape"] == entry["shape"], name
        assert sorted(mine["values"]) == sorted(entry["values"]), name
        for index, value in entry["values"].items():
            x, y = float(mine["values"][index]), float(value)
            assert np.isfinite(x) == np.isfinite(y), (name, index, x, y)
            if np.isfinite(y):
                assert abs(x - y) <= 1e-12 * max(abs(y), 1.0), \
                    (name, index, x, y)
            else:
                assert repr(x) == repr(y), (name, index, x, y)
