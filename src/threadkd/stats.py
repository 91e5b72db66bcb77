"""Traversal counters shared by queries and update operations."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VisitStats:
    """Counts of structure elements touched by one operation.

    Usually a fresh instance is used per operation; a reused one sums the
    counts of every operation given it.  Nothing here is shared state, so
    concurrent readers can each carry their own counter.

    tree_nodes_visited counts tree nodes examined as candidates (range or
    prefix test evaluated), trie_nodes_visited counts trie cells entered
    and members read by a small group's walk, threads_followed counts
    link hops taken while stepping through either structure,
    cross_links_followed counts jumps from one level to the next, and
    trie_lookups counts successor-lookup calls issued against tries or,
    in a group that keeps a count instead, against its members.
    per_level_candidates[j] is the number of level-j keys whose
    range test passed during window queries.
    """

    tree_nodes_visited: int = 0
    trie_nodes_visited: int = 0
    threads_followed: int = 0
    cross_links_followed: int = 0
    trie_lookups: int = 0
    rotations: int = 0
    per_level_candidates: list[int] = field(default_factory=list)

    def total_touches(self) -> int:
        """Aggregate structural work: every node examined plus every link hop."""
        return (
            self.tree_nodes_visited
            + self.trie_nodes_visited
            + self.threads_followed
            + self.cross_links_followed
            + self.rotations
        )

    def candidates_total(self) -> int:
        return sum(self.per_level_candidates)
