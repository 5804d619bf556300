"""The target contract: what decode, the drafters and the trainer may ask of
a target (engine.TargetModel) and of one request's session on it
(engine.TargetSession), checked the same way on every target.

Each target here runs the same six checks, all through sessions: tree rows
are the conditionals of each node's path, a chain tree gives a sequence's
conditionals (the training labels), feature rows extend to the whole prefix,
a token outside the vocabulary raises ConfigError, one construction gives one
set of rows, and a session extended cycle by cycle answers as a fresh session
on its prefix does. ReferenceTarget (tests/oracles.py) draws every row afresh
and its session holds the protocol's members alone; decode, training and
evaluation must give MarkovTarget's outputs on it, bit for bit.
"""

import numpy as np
import pytest

from specdraft.engine import DecodeConfig, TargetModel, TargetSession, baseline_decode, decode
from specdraft.errors import ConfigError, InvalidTreeError
from specdraft.models import FEAT_WIDTH, MarkovTarget, NoisyOracleDrafter, ToyDraft
from specdraft.ngram import build_trie
from specdraft.training import build_training_batch, evaluate_alpha
from specdraft.tree import ROOT_ID, DraftTree, PruneConfig

from oracles import ReferenceTarget, chain

# Each target as (class, seed, vocab_size, order). At V=64 a call meets
# enough new contexts to seed them together.
TARGETS = {
    "markov-V9-o1": (MarkovTarget, 13, 9, 1),
    "markov-V9-o2": (MarkovTarget, 13, 9, 2),
    "markov-V9-o3": (MarkovTarget, 13, 9, 3),
    "markov-V64-o2": (MarkovTarget, 13, 64, 2),
    "reference-V9-o2": (ReferenceTarget, 13, 9, 2),
}


@pytest.fixture(params=sorted(TARGETS))
def make(request):
    """A fresh target of the parameter's construction on every call."""
    cls, seed, vocab_size, order = TARGETS[request.param]
    return lambda: cls(seed, vocab_size, order)


def random_tree(rng, n, vocab_size):
    """n nodes, each under ROOT_ID or an earlier node."""
    parent = [int(rng.integers(ROOT_ID, i)) if i else ROOT_ID for i in range(n)]
    level = []
    for p in parent:
        level.append(0 if p == ROOT_ID else level[p] + 1)
    return DraftTree(parent, rng.integers(0, vocab_size, size=n), level, np.zeros(n))


def path_of(tree, i):
    path = []
    while i != ROOT_ID:
        path.append(int(tree.token[i]))
        i = int(tree.parent[i])
    return path[::-1]


def tokens(rng, n, vocab_size):
    return [int(x) for x in rng.integers(0, vocab_size, size=n)]


# -- the protocol --------------------------------------------------------------


def _members(protocol):
    return set(protocol.__annotations__) | {
        name for name, value in vars(protocol).items()
        if callable(value) and not name.startswith("_")}


def test_every_target_and_session_provides_the_protocol(make):
    target = make()
    session = target.start([1, 2])
    assert all(hasattr(target, name) for name in _members(TargetModel))
    assert all(hasattr(session, name) for name in _members(TargetSession))
    assert target.embeddings.shape[0] == target.vocab_size
    assert session.tokens == [1, 2] and session.draft is None


def test_the_reference_session_holds_the_protocol_members_alone():
    public = {name for name in dir(ReferenceTarget(1, 9, 2).start([1])) if name[0] != "_"}
    assert public == _members(TargetSession)
    assert _members(TargetSession) <= set(dir(MarkovTarget(1, 9, 2).start([1])))


# -- the six checks ------------------------------------------------------------


@pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0])
def test_tree_dists_match_next_dist_over_each_path(make, temperature):
    target = make()
    V, rng = target.vocab_size, np.random.default_rng(1)
    for prefix_len in (0, 1, 2, 3, 6):  # shorter than the order, and longer
        for n in (1, 2, 7, 30):
            tree = random_tree(rng, n, V)
            prefix = tokens(rng, prefix_len, V)
            want = [target.start(prefix).next_dist(temperature)]
            want += [target.start(prefix + path_of(tree, i)).next_dist(temperature)
                     for i in range(n)]
            got = target.start(prefix).tree_dists(tree, temperature)
            assert got.shape == (1 + n, V)
            assert np.array_equal(got, np.stack(want))


@pytest.mark.parametrize("temperature", [0.0, 0.5, 1.0])
def test_chain_tree_dists_match_next_dist_per_prefix(make, temperature):
    # What build_training_batch takes its labels from: row i is the
    # conditional after the first i + 1 tokens.
    target = make()
    rng = np.random.default_rng(2)
    for n in (1, 2, 3, 17):
        seq = tokens(rng, n, target.vocab_size)
        got = target.start(seq[:1]).tree_dists(chain(seq[1:]), temperature)
        assert got.shape == (n, target.vocab_size)
        for i in range(n):
            assert np.array_equal(got[i], target.start(seq[:i + 1]).next_dist(temperature))


def test_features_extend_to_the_full_prefix(make):
    # Rows from `start` on, appended to the rows of prefix[:start], are the
    # rows of the whole prefix: also for start < order, where a row's context
    # reaches back past `start`.
    target = make()
    rng = np.random.default_rng(3)
    for n in (0, 1, 2, 5, 17):
        prefix = tokens(rng, n, target.vocab_size)
        full = target.start(prefix).features()
        assert full.shape == (n, 3 * FEAT_WIDTH)
        for start in range(n + 1):
            tail = target.start(prefix).features(start)
            assert tail.shape == (n - start, 3 * FEAT_WIDTH)
            head = target.start(prefix[:start]).features()
            assert np.array_equal(np.concatenate([head, tail]), full)
        for start in (-1, n + 1):
            with pytest.raises(ConfigError):
                target.start(prefix).features(start)


# Every session query, as call(session), each reading the prefix's last token.
READING_CALLS = (lambda s: s.next_dist(), lambda s: s.features(len(s.tokens) - 1),
                 lambda s: s.tree_dists(chain([1, 2])), lambda s: s.rollout(2, np.argmax))


@pytest.mark.parametrize("bad", ["V", -1, 2 ** 32, 2 ** 64])
def test_a_token_outside_the_vocabulary_raises(make, bad):
    target = make()
    V = target.vocab_size
    bad = V if bad == "V" else bad
    pattern = r"outside \[0, %d\)" % V
    for call in READING_CALLS:
        with pytest.raises(ConfigError, match=pattern):
            call(target.start([3, 1, bad]))
        session = target.start([3])
        session.extend([1, bad])
        with pytest.raises(ConfigError, match=pattern):
            call(session)
    if bad < 2 ** 63:  # a tree node's token, where a tree can hold it
        with pytest.raises(ConfigError, match=pattern):
            target.start([3, 1]).tree_dists(chain([2, bad]))
    else:  # past int64, no tree can
        with pytest.raises(InvalidTreeError, match="^token holds a value past int64"):
            chain([2, bad])
    picks = iter([0, bad])
    with pytest.raises(ConfigError, match=pattern):  # a picked token
        target.start([3, 1]).rollout(3, lambda row: next(picks))


def test_one_construction_gives_one_set_of_rows(make):
    # Two targets built alike agree on every row, whichever order they meet
    # the contexts in.
    a, b = make(), make()
    V, rng = a.vocab_size, np.random.default_rng(4)
    prefix = tokens(rng, 40, V)
    tree = random_tree(rng, 20, V)
    b.start(prefix[::-1]).features()
    b.start(prefix[::-1][:1]).tree_dists(chain(prefix[::-1][1:]))
    assert a.vocab_size == b.vocab_size and np.array_equal(a.embeddings, b.embeddings)
    for n in (1, 2, 40):
        sa, sb = a.start(prefix[:n]), b.start(prefix[:n])
        for temperature in (0.0, 1.0):
            assert np.array_equal(sa.next_dist(temperature), sb.next_dist(temperature))
            assert np.array_equal(sa.tree_dists(tree, temperature), sb.tree_dists(tree, temperature))
        assert np.array_equal(sa.features(), sb.features())
        assert sa.rollout(8, np.argmax) == sb.rollout(8, np.argmax)
    assert (a.sample_sequence(np.random.default_rng(5), 20)
            == b.sample_sequence(np.random.default_rng(5), 20))


def test_a_session_extended_cycle_by_cycle_answers_as_a_fresh_one(make):
    # Cycles append 1, 2, .. tokens; at each, every query on the grown
    # session gives the fresh session's rows, and no query moves the prefix.
    target = make()
    V, rng = target.vocab_size, np.random.default_rng(6)
    session = target.start(tokens(rng, 2, V))
    tree = random_tree(rng, 12, V)
    for cycle in range(8):
        session.extend(tokens(rng, 1 + cycle % 4, V))
        prefix = list(session.tokens)
        fresh = target.start(prefix)
        n = len(prefix)
        for temperature in (0.0, 1.0):
            assert np.array_equal(session.next_dist(temperature), fresh.next_dist(temperature))
            assert np.array_equal(session.tree_dists(tree, temperature),
                                  fresh.tree_dists(tree, temperature))
        for start in (0, max(n - 3, 0), n):
            assert np.array_equal(session.features(start), fresh.features(start))
        assert session.rollout(5, np.argmax) == fresh.rollout(5, np.argmax)
        assert session.tokens == prefix


# -- MarkovTarget and ReferenceTarget give one output --------------------------


CROSS = {"V9-o2": (9, 2), "V64-o2": (64, 2)}


@pytest.fixture(params=sorted(CROSS))
def pair(request):
    """(MarkovTarget, ReferenceTarget) of one construction, and a prompt
    and corpus sampled from each."""
    V, order = CROSS[request.param]
    targets = MarkovTarget(3, V, order), ReferenceTarget(3, V, order)
    samples = [[t.sample_sequence(np.random.default_rng(i), 14) for i in range(6)]
               for t in targets]
    assert samples[0] == samples[1]
    return targets, samples[0]


def _decodes(target, corpus, drafter, temperature):
    cfg = DecodeConfig(d=4, temperature=temperature, max_tokens=16, seed=2,
                       prune=PruneConfig(k=4, w=4, theta=12))
    trie = build_trie(corpus, 3, target.vocab_size)
    out = []
    for prompt in (corpus[0][:1], corpus[1][:9]):
        tokens_out, metrics = decode(prompt, target, drafter, trie, cfg, measure_base=False)
        out.append((tokens_out, [(r.accepted, r.emitted, r.nodes_per_level)
                                 for r in metrics.records]))
        out.append(baseline_decode(prompt, target, 16, temperature, seed=2))
    return out


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_decode_is_one_on_both_targets(pair, temperature):
    targets, corpus = pair
    for drafter in (lambda t: NoisyOracleDrafter(t, seed=1),
                    lambda t: ToyDraft(t.vocab_size, t.embeddings, seed=5)):
        markov, reference = (_decodes(t, corpus, drafter(t), temperature) for t in targets)
        assert markov == reference


def test_training_batch_and_alpha_are_one_on_both_targets(pair):
    targets, corpus = pair
    batches = [build_training_batch(t, corpus, 4, 0.6) for t in targets]
    for name in ("feats", "emb_tokens", "mask", "position_ids", "slot_positions",
                 "slot_weights", "conditionals", "labels"):
        assert np.array_equal(getattr(batches[0], name), getattr(batches[1], name)), name
    for a, b in zip(batches[0].label_terms, batches[1].label_terms):
        assert np.array_equal(a, b)
    for vs_greedy in (False, True):
        alphas = [evaluate_alpha(drafter, t, corpus, 4, vs_greedy=vs_greedy)
                  for t in targets
                  for drafter in (NoisyOracleDrafter(t, seed=1),
                                  ToyDraft(t.vocab_size, t.embeddings, seed=5))]
        assert alphas[:2] == alphas[2:]
