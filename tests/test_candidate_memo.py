"""Properties of :class:`repro.autotune.space.CandidateMemo`.

* Exact: in any order of lookups, over spaces that evict one another,
  each lookup returns the configs, ``canonical_hash`` values and
  ``space.stats`` a fresh enumeration gives (the configs' JSON too, so
  a micro-batch size of ``True`` never stands in for ``1``, nor 16.0
  GPUs for 16).
* Bounded: the configs held (each entry counting ``ENTRY_CONFIGS``
  more) never exceed the bound, and the count the memo keeps is the
  count its entries hold.
* A space larger than the bound is served but not kept.
* Racing lookups of one space all return equal results, and the memo
  keeps one entry.
"""

from __future__ import annotations

import json
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune.space import CandidateMemo, SearchSpace
from repro.models import get_spec

#: small spaces (a handful to a few dozen configs) that differ in one input each
POOL = (
    ("gpt3-xl", 16, (0.9,), (1,)),
    ("gpt3-xl", 16, (0.9,), (True,)),
    ("gpt3-xl", 16, (0.9,), (1.0,)),
    ("gpt3-xl", 16.0, (0.9,), (1,)),
    ("gpt3-xl", 16, (0.5,), (1,)),
    ("gpt3-xl", 32, (0.9,), (1, 2)),
    ("gpt3-2.7b", 16, (0.9,), (1,)),
    ("gpt3-2.7b", 64, (0.5, 0.9), (1,)),
    ("vgg19", 16, (0.9,), (1,)),
    ("vgg19", 16, (0.0, 1.0), (1,)),
)


def space(i: int) -> SearchSpace:
    model, n_gpus, sparsities, mbs = POOL[i]
    return SearchSpace(get_spec(model), n_gpus, frameworks=("axonn", "axonn+samo", "sputnik"),
                       sparsities=sparsities, microbatch_sizes=mbs)


def fresh(i: int) -> tuple:
    s = space(i)
    configs = list(s.candidates())
    return configs, s.stats


def wire(configs) -> str:
    return json.dumps([c.to_dict() for c in configs])


def assert_accounted(memo: CandidateMemo) -> None:
    held = sum(len(configs) + memo.ENTRY_CONFIGS for configs, _hashes, _counts in memo._entries.values())
    assert memo._held == held <= memo.MAX_CONFIGS


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, len(POOL) - 1), min_size=1, max_size=25),
       st.integers(0, 60))
def test_lookups_in_any_order_equal_fresh_enumerations(order, bound):
    memo = CandidateMemo()
    memo.MAX_CONFIGS = bound  # small enough that the spaces evict one another
    for i in order:
        s = space(i)
        configs, hashes = memo.lookup(s)
        expected, stats = fresh(i)
        assert wire(configs) == wire(expected)
        assert hashes == tuple(c.canonical_hash() for c in expected)
        assert s.stats == stats
        # a second lookup on the same space object adds the counts again
        memo.lookup(s)
        assert s.stats.generated == 2 * stats.generated
        assert s.stats.pruned_memory == 2 * stats.pruned_memory
        assert s.stats.pruned_branches == 2 * stats.pruned_branches
        assert_accounted(memo)


def test_equal_numbers_of_another_type_are_other_spaces():
    """16 == 16.0 and (True,) == (1,) == (1.0,), yet each GPU count and
    micro-batch size is written into the configs as given."""
    for group in ((0, 1, 2), (0, 3)):
        for order in (group, group[::-1]):
            memo = CandidateMemo()
            for i in order:
                assert wire(memo.lookup(space(i))[0]) == wire(fresh(i)[0])


def test_a_space_larger_than_the_bound_is_served_but_not_kept():
    memo = CandidateMemo()
    small, large = space(0), space(7)
    kept, _ = memo.lookup(small)
    memo.MAX_CONFIGS = len(kept) + memo.ENTRY_CONFIGS
    configs, hashes = memo.lookup(large)
    expected, _ = fresh(7)
    assert len(expected) > len(kept)
    assert wire(configs) == wire(expected)
    assert hashes == tuple(c.canonical_hash() for c in expected)
    assert len(memo._entries) == 1 and memo.lookup(space(0))[0] is kept
    assert_accounted(memo)


def test_racing_lookups_of_one_space_are_equal(monkeypatch):
    n = 8
    together = threading.Barrier(n)
    original = SearchSpace.candidates

    def enumerate_together(self):
        together.wait(timeout=10)  # every thread misses before any keeps
        yield from original(self)

    monkeypatch.setattr(SearchSpace, "candidates", enumerate_together)
    memo, results, errors = CandidateMemo(), [None] * n, []

    def ask(k):
        try:
            s = space(7)
            results[k] = (*memo.lookup(s), s.stats)
        except BaseException as err:  # surfaced below
            errors.append(err)

    threads = [threading.Thread(target=ask, args=(k,)) for k in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    monkeypatch.undo()
    expected, stats = fresh(7)
    for configs, hashes, got_stats in results:
        assert wire(configs) == wire(expected)
        assert hashes == tuple(c.canonical_hash() for c in expected)
        assert got_stats == stats
    assert len(memo._entries) == 1
    assert_accounted(memo)
