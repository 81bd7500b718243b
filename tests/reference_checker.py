"""Brute-force reference for the strict-serializability rules.

The eight rules as the pre-unification offline checker stated them:
every pair compared, nothing retained between rules, nothing pruned,
quadratic and proud of it.  The one referee under ``src/``
(:class:`repro.verify.online.OnlineChecker`) is convicted against this
in the mutation and differential suites; it is deliberately written in a
different shape (whole-list sweeps instead of windows and frontiers) so
that agreement means something.

Input is plain record lists — anything with the attributes of
``CommittedWrite`` / ``ProgramRead`` / ``ShardApply`` — plus the
decided-order relation.  Output is a list of
:class:`~repro.verify.history.Violation`, first offending pair per
(rule, subject), like the referee's.
"""

from repro.core.vclock import Ordering
from repro.verify.history import Violation


def reference_check(history, compare):
    """Every violation in ``history`` (a History, or anything exposing
    ``commits`` / ``reads`` / ``applies``) under ``compare``."""
    commits = list(history.commits)
    reads = list(history.reads)
    memo = {}

    def order(a, b):
        key = (a.id, b.id)
        if key not in memo:
            memo[key] = compare(a, b)
        return memo[key]

    per_vertex = {}
    for commit in commits:
        for vertex, _value in commit.writes:
            per_vertex.setdefault(vertex, []).append(commit)
    for chain in per_vertex.values():
        chain.sort(key=lambda c: c.commit_seq)  # stable: ties by arrival
    by_tag = {commit.tag: commit for commit in commits}

    out = []
    out.extend(_unique_stamps(commits))
    out.extend(_commit_order(per_vertex, order))
    out.extend(_apply_order(commits, history.applies, order))
    out.extend(_reads(reads, per_vertex, by_tag, order))
    out.extend(_real_time(reads, per_vertex, by_tag, order))
    return out


def subjects(violations):
    """The comparable content of a verdict: {(kind, subject)}."""
    return {(v.kind, v.subject) for v in violations}


def _unique_stamps(commits):
    """Committed timestamps are transaction identities (section 3.3):
    two commits must never share one."""
    seen = {}
    for commit in commits:
        other = seen.get(commit.ts.id)
        if other is not None:
            yield Violation(
                "duplicate-stamp",
                f"transactions {other.tag} and {commit.tag} share "
                f"timestamp {commit.ts}",
                other, commit, commit.ts.id,
            )
        else:
            seen[commit.ts.id] = commit


def _first_inversion(sequence, order):
    """The first (earlier, later) in ``sequence`` decided the other way."""
    for i, earlier in enumerate(sequence):
        for later in sequence[i + 1:]:
            if order(earlier.ts, later.ts) is Ordering.AFTER:
                return earlier, later
    return None


def _commit_order(per_vertex, order):
    """Same-vertex commits: decided timestamp order must agree with
    backing-store commit order (section 4.2's monotonicity rule)."""
    for vertex, chain in sorted(per_vertex.items()):
        pair = _first_inversion(chain, order)
        if pair is not None:
            earlier, later = pair
            yield Violation(
                "commit-order",
                f"writes to {vertex!r}: tx {earlier.tag} committed before "
                f"tx {later.tag} but its timestamp is decided after",
                earlier, later, vertex,
            )


def _apply_order(commits, applies, order):
    """Each shard's apply sequence must be a linear extension of the
    decided order (the Fig 6 loop's whole job)."""
    by_id = {c.ts.id: c for c in commits}
    for shard in sorted(applies):
        sequence = sorted(applies[shard], key=lambda a: (a.key, a.arrival))
        known = [by_id[a.ts.id] for a in sequence if a.ts.id in by_id]
        pair = _first_inversion(known, order)
        if pair is not None:
            earlier, later = pair
            yield Violation(
                "apply-order",
                f"shard {shard} applied tx {earlier.tag} before tx "
                f"{later.tag} against the decided timestamp order",
                earlier, later, shard,
            )


def _reads(reads, per_vertex, by_tag, order):
    """Each program read must land exactly at its timestamp: it sees the
    newest same-vertex write decided before it, and nothing decided
    after it."""
    for read in reads:
        for vertex, observed_tag in read.reads:
            subject = (read.query_id, vertex)
            observed = None
            if observed_tag is not None:
                observed = by_tag.get(observed_tag)
                if observed is None:
                    yield Violation(
                        "phantom-read",
                        f"program {read.query_id} read tag "
                        f"{observed_tag!r} on {vertex!r}, which no "
                        f"committed transaction wrote",
                        read, None, subject,
                    )
                    continue
                if order(observed.ts, read.ts) is Ordering.AFTER:
                    yield Violation(
                        "future-read",
                        f"program {read.query_id} on {vertex!r} observed "
                        f"tx {observed.tag}, decided after the program's "
                        f"timestamp",
                        read, observed, subject,
                    )
                    continue
            floor = observed.commit_seq if observed is not None else -1
            for newer in per_vertex.get(vertex, []):
                if newer.commit_seq <= floor:
                    continue
                if order(newer.ts, read.ts) is Ordering.BEFORE:
                    yield Violation(
                        "stale-read",
                        f"program {read.query_id} on {vertex!r} missed tx "
                        f"{newer.tag}, decided before the program's "
                        f"timestamp",
                        read, newer, subject,
                    )
                    break


def _real_time(reads, per_vertex, by_tag, order):
    """Strictness on conflicting pairs: an operation acknowledged before
    another begins must not serialize after it."""
    # Write acked before a conflicting write was submitted.
    for vertex, chain in sorted(per_vertex.items()):
        pair = next(
            (
                (first, second)
                for first in chain
                for second in chain
                if first.acked_at < second.submitted_at
                and order(first.ts, second.ts) is Ordering.AFTER
            ),
            None,
        )
        if pair is not None:
            first, second = pair
            yield Violation(
                "real-time-write",
                f"tx {first.tag} on {vertex!r} was acked before tx "
                f"{second.tag} was submitted, yet is decided after it",
                first, second, vertex,
            )
    # Write acked before a read was submitted: the read must see the
    # write's effects (its observed state must not be older).
    for read in reads:
        for vertex, observed_tag in read.reads:
            observed = by_tag.get(observed_tag)
            floor = observed.commit_seq if observed is not None else -1
            for write in per_vertex.get(vertex, []):
                if write.acked_at >= read.submitted_at:
                    continue
                if write.commit_seq > floor:
                    yield Violation(
                        "real-time-read",
                        f"program {read.query_id} on {vertex!r} missed tx "
                        f"{write.tag}, acked before the program was "
                        f"submitted",
                        read, write, (read.query_id, vertex),
                    )
                    break
