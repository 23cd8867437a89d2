"""Join-pattern matching: the deterministic policy against the brute-force
oracle, and the soundness/completeness clauses."""

import itertools
import random
from collections import Counter

from cpl.core import BaseLit, BaseT, JoinPattern, Mailbox, MessageValue
from cpl.machine import deterministic, enumerate_matches, match_patterns

INT = BaseT("Int")


def pat(svc, arity):
    return JoinPattern(svc, tuple((f"{svc}{i}", INT) for i in range(arity)))


def msg(svc, *args):
    return MessageValue(svc, tuple(BaseLit(a) for a in args))


SERVICES = ("a", "b", "c")
PATTERN_ATOMS = [pat(s, n) for s in SERVICES for n in (0, 1)]
MSG_ATOMS = [msg(s) for s in SERVICES] + [msg(s, v) for s in SERVICES for v in (1, 2)]


def rename(patterns):
    """Make one rule's parameters globally distinct (pattern linearity)."""
    out = []
    for i, p in enumerate(patterns):
        out.append(JoinPattern(p.service, tuple((f"p{i}_{j}", t) for j, (_, t) in enumerate(p.params))))
    return tuple(out)


def all_pattern_lists(max_len=3):
    for n in range(1, max_len + 1):
        for combo in itertools.product(PATTERN_ATOMS, repeat=n):
            yield rename(combo)


def check_clauses(patterns, buffer, results):
    for m in results:
        # Clause 1: consumed plus residual is the buffer, modulo permutation.
        assert Counter(m.consumed) + Counter(m.residual) == Counter(buffer)
        # Clause 2: arity and service of each consumed message match its pattern.
        assert len(m.consumed) == len(patterns)
        for p, c in zip(patterns, m.consumed):
            assert c.service == p.service and len(c.args) == len(p.params)
        # Clause 3: sigma is exactly the parameter bindings.
        expected = {}
        for p, c in zip(patterns, m.consumed):
            for (name, _), v in zip(p.params, c.args):
                expected[name] = v
        assert m.substitution() == expected


def independent_results(patterns, buffer):
    """Order-selection oracle built on itertools, independent of the engine."""
    out = set()
    idxs = range(len(buffer))
    for sel in itertools.permutations(idxs, len(patterns)):
        ok = all(
            buffer[i].service == p.service and len(buffer[i].args) == len(p.params)
            for i, p in zip(sel, patterns)
        )
        if not ok:
            continue
        consumed = tuple(buffer[i] for i in sel)
        residual = tuple(m for j, m in enumerate(buffer) if j not in sel)
        bindings = tuple(
            (name, v)
            for p, c in zip(patterns, consumed)
            for (name, _), v in zip(p.params, c.args)
        )
        out.add((consumed, residual, bindings))
    return out


def test_match0_empty_patterns():
    buffer = (msg("a", 1), msg("b"))
    results = enumerate_matches((), buffer)
    assert len(results) == 1
    m = results[0]
    assert m.consumed == () and m.residual == buffer and m.subst == ()


def test_single_pattern_two_candidates():
    patterns = rename((pat("a", 1),))
    buffer = (msg("a", 1), msg("a", 2))
    results = enumerate_matches(patterns, buffer)
    assert len(results) == 2
    sigmas = sorted(m.substitution()["p0_0"].value for m in results)
    assert sigmas == [1, 2]
    det = match_patterns(patterns, buffer, deterministic(0))
    assert det.substitution()["p0_0"] == BaseLit(1)  # oldest first


def test_two_patterns_unique_match():
    patterns = rename((pat("a", 1), pat("b", 1)))
    buffer = (msg("a", 1), msg("b", 2))
    results = enumerate_matches(patterns, buffer)
    assert len(results) == 1


def test_no_match():
    patterns = rename((pat("a", 0),))
    assert match_patterns(patterns, (msg("b"),), deterministic(0)) is None
    assert enumerate_matches(patterns, (msg("b"),)) == []


def test_two_pattern_residual_and_order():
    patterns = rename((pat("a", 1), pat("b", 1)))
    buffer = (msg("a", 3), msg("b", 1), msg("c", 9))
    m = match_patterns(patterns, buffer, deterministic(0))
    assert m.residual == (msg("c", 9),)
    assert [c.service for c in m.consumed] == ["a", "b"]


def test_greedy_complete_for_shared_services():
    patterns = rename((pat("a", 1), pat("a", 1)))
    buffer = (msg("a", 1),)
    assert match_patterns(patterns, buffer, deterministic(0)) is None
    buffer = (msg("a", 1), msg("a", 2))
    m = match_patterns(patterns, buffer, deterministic(0))
    assert m is not None and m.residual == ()


def test_oracle_exhaustive_small():
    """All pattern lists of length <= 3, buffers of length <= 3, full check."""
    buffers = [()]
    for n in (1, 2, 3):
        buffers.extend(itertools.product(MSG_ATOMS, repeat=n))
    count = 0
    for patterns in all_pattern_lists(3):
        for buffer in buffers:
            results = enumerate_matches(patterns, tuple(buffer))
            check_clauses(patterns, tuple(buffer), results)
            det = match_patterns(patterns, tuple(buffer), deterministic(0))
            key = {(m.consumed, m.residual, m.subst) for m in results}
            if det is None:
                assert not results
            else:
                assert (det.consumed, det.residual, det.subst) in key
            count += 1
    assert count > 50_000


def test_oracle_sampled_long_buffers():
    rng = random.Random(8)
    pattern_lists = list(all_pattern_lists(3))
    for _ in range(1_200):
        patterns = rng.choice(pattern_lists)
        buffer = tuple(rng.choice(MSG_ATOMS) for _ in range(rng.randrange(4, 7)))
        results = enumerate_matches(patterns, buffer)
        check_clauses(patterns, buffer, results)
        indep = independent_results(patterns, buffer)
        assert {(m.consumed, m.residual, m.subst) for m in results} == indep
        det = match_patterns(patterns, buffer, deterministic(rng.randrange(100)))
        if det is not None:
            assert (det.consumed, det.residual, det.subst) in indep
        else:
            assert not indep


def reference_match(patterns, buffer):
    """The deterministic matcher as a scan over the whole buffer, from
    before the per-service queues: (consumed, residual, bindings) or None."""
    taken: list[int] = []
    for p in patterns:
        for i, m in enumerate(buffer):
            if m.service == p.service and len(m.args) == len(p.params) and i not in taken:
                break
        else:
            return None
        taken.append(i)
    consumed = tuple(buffer[i] for i in taken)
    bindings = tuple((n, v) for p, m in zip(patterns, consumed) for (n, _), v in zip(p.params, m.args))
    residual = buffer[:0]
    start = 0
    for i in sorted(taken):
        residual += buffer[start:i]
        start = i + 1
    residual += buffer[start:]
    return consumed, residual, bindings


def test_queues_agree_with_the_reference_scan():
    """Seeded random buffers of up to 8 messages over 2 or 3 services with
    mixed arities, and pattern lists that repeat services."""
    rng = random.Random(1998)
    compared = 0
    for _ in range(4_000):
        services = SERVICES[: rng.choice((2, 3))]
        keys = [(s, n) for s in services for n in (0, 1, 2)]
        buffer = tuple(
            msg(s, *(rng.randrange(5) for _ in range(n)))
            for s, n in (rng.choice(keys) for _ in range(rng.randrange(9)))
        )
        patterns = rename(tuple(pat(*rng.choice(keys)) for _ in range(rng.randrange(1, 5))))
        want = reference_match(patterns, buffer)
        for given in (buffer, list(buffer), Mailbox.of(buffer)):
            got = match_patterns(patterns, given, deterministic(rng.randrange(100)))
            if want is None:
                assert got is None
                continue
            residual = got.residual.ordered() if isinstance(given, Mailbox) else got.residual
            assert (got.consumed, tuple(residual), got.subst) == (want[0], tuple(want[1]), want[2])
            compared += 1
        first = enumerate_matches(patterns, buffer)
        if want is None:
            assert not first
        else:
            assert (first[0].consumed, first[0].residual) == (want[0], want[1])
    assert compared > 1_000
