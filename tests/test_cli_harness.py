"""Generated inputs at the CLI boundary: bad input exits 2 or 3, never with a
traceback.

`train-toy` runs in-process with warnings as errors over `--override` of
every `training.*` key and the top-level `seed`, each set to an edge value
or a small valid one. Valid sizes are capped here, not by a timeout: a
valid but large run is no defect.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from specdraft.cli import _TRAINING_DEFAULTS, EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK, main

# JSON texts of the edge values: 0, -1, NaN, +-inf, 1e308, 2**63, 10**22,
# true, a string, a list and null.
EDGES = ["0", "-1", "NaN", "Infinity", "-Infinity", "1e308", str(2 ** 63), str(10 ** 22),
         "true", '"x"', "[1]", "null"]
# A valid integer this large would run for ever or allocate without bound.
UNBOUNDED = {str(2 ** 63), str(10 ** 22)}
SIZE_CAPS = {"steps": 3, "corpus_sequences": 4, "heldout_sequences": 4, "sequence_length": 12}
# Small valid sizes set first, so that no default size (500 steps, 50
# held-out sequences) runs; a case's own overrides come after and win.
BASE = ["training.steps=2", "training.corpus_sequences=2", "training.heldout_sequences=2",
        "training.sequence_length=10"]


def _values(key):
    edges = [v for v in EDGES if key not in SIZE_CAPS or v not in UNBOUNDED]
    return st.sampled_from(edges) | st.integers(0, SIZE_CAPS.get(key, 3)).map(str)


# Up to three (key, value) overrides of the training keys and seed, applied in turn.
KEYS = [f"training.{key}" for key in _TRAINING_DEFAULTS] + ["seed"]
OVERRIDES = st.lists(st.sampled_from(KEYS).flatmap(
    lambda key: _values(key.removeprefix("training.")).map(lambda value: f"{key}={value}")),
    max_size=3)


@seed(20261020)
@settings(max_examples=300, deadline=None, database=None)
@given(overrides=OVERRIDES)
def test_train_toy_exits_with_a_code_for_any_override(overrides):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        model = Path(tmp, "model.npz")
        argv = ["train-toy", "--eval-every", "1", "--log", str(Path(tmp, "log.jsonl")),
                "--override", f"paths.model={json.dumps(str(model))}"]
        for item in BASE + overrides:
            argv += ["--override", item]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_DIVERGED), (argv, err.getvalue())
        assert (rc == EXIT_OK) == model.exists(), (argv, err.getvalue())
