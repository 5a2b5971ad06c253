"""The benchmark's own checks.

* Self-time arithmetic on a synthetic span tree.
* Wrapping and unwrapping leaves every nandtree attribute identical to
  the original object, so a traced run cannot leak into an untraced one.

Run from the repository root: ``python3 perfbench/selftest.py``.  A
traced benchmark run makes the same checks and reports a failure as
``"correct": false``.
"""

from __future__ import annotations

import sys

import tracer as tr


def check_self_times() -> list[str]:
    def span(start, end, parent):
        return ["x", "x", start, end, parent, 0, None, 0]

    spans = [
        span(0.0, 10.0, -1),   # 0: root
        span(1.0, 3.0, 0),     # 1: child
        span(1.5, 2.0, 1),     # 2: grandchild, removed from 1 only
        span(2.0, 5.0, 0),     # 3: child overlapping 1: the union [1, 5] counts once
        span(6.0, 7.0, 0),     # 4: child
        span(9.0, 12.0, 0),    # 5: child running past its parent: clipped at 10
    ]
    want = [10.0 - 4.0 - 1.0 - 1.0, 1.5, 0.5, 3.0, 1.0, 3.0]
    got = tr.self_times(spans)
    if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
        return [f"self times {got} != {want}"]
    return []


def check_wrap_identity() -> list[str]:
    """Wrap, make one traced call, unwrap, and compare every attribute."""
    before = tr.snapshot()
    tracer = tr.Tracer()
    tracer.wrap()
    problems = []
    try:
        import nandtree

        if nandtree.build_tree is before[("nandtree", "build_tree")]:
            problems.append("wrap() left nandtree.build_tree unwrapped")
        tracer.active = True
        nandtree.build_tree(1, "01")
        tracer.active = False
        if [s[tr.NAME] for s in tracer.spans] != ["model.build_tree"]:
            problems.append(f"unexpected spans {tracer.spans!r}")
    finally:
        tracer.unwrap()
    return problems + restored(before)


def restored(before) -> list[str]:
    """Differences between a :func:`tracer.snapshot` and the package now."""
    after = tr.snapshot()
    problems = []
    if before.keys() != after.keys():
        problems.append(f"attributes changed: {sorted(before.keys() ^ after.keys())}")
    problems += [f"{mod}.{attr} not restored" for (mod, attr), value in before.items()
                 if after.get((mod, attr)) is not value]
    return problems


def main() -> int:
    from run import import_package

    import_package()
    problems = check_self_times() + check_wrap_identity()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
