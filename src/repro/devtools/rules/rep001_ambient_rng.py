"""REP001 — ambient (global / OS-backed) randomness.

Every random draw in the execution and analysis paths must flow
through an explicitly seeded generator (``CombinedLfsrPrng``,
``SplitMix64``, ``numpy.random.Generator`` / ``default_rng(seed)``),
or two runs of the same campaign seed are no longer the same
experiment.  This rule rejects the ambient entry points:

* ``random.<fn>()`` module functions (the hidden global Mersenne
  Twister) and ``random.SystemRandom`` (OS entropy);
* ``numpy.random.<fn>()`` legacy module functions (the hidden global
  ``RandomState``) and ``numpy.random.default_rng()`` *without* a seed;
* ``secrets.*`` and ``uuid.uuid1`` / ``uuid.uuid4`` (OS entropy).

Explicit constructions stay allowed: ``random.Random(seed)``,
``numpy.random.default_rng(seed)``, ``numpy.random.Generator`` /
``PCG64`` / ``SeedSequence`` (capitalised constructors take explicit
state).
"""

from __future__ import annotations

import ast

from .base import Rule, qualified_call_name

_ALLOWED_STDLIB_RANDOM = frozenset({"random.Random"})
_FORBIDDEN_EXACT = frozenset({"uuid.uuid1", "uuid.uuid4", "random.SystemRandom"})


class AmbientRngRule(Rule):
    rule_id = "REP001"
    summary = (
        "ambient RNG (random.* / np.random.* module functions); "
        "randomness must come from seeded explicit generators"
    )

    def visit_Call(self, node: ast.Call) -> None:
        qualified = qualified_call_name(node, self.imports)
        if qualified is not None:
            self._check_qualified(node, qualified)
        self.generic_visit(node)

    def _check_qualified(self, node: ast.Call, qualified: str) -> None:
        if qualified in _FORBIDDEN_EXACT:
            self.report(
                node,
                f"call to non-deterministic `{qualified}`; derive identifiers "
                "and draws from the campaign seed instead",
            )
            return
        if qualified.startswith("secrets."):
            self.report(
                node,
                f"call to `{qualified}` uses OS entropy; experiments must be "
                "replayable from their seed",
            )
            return
        if (
            qualified.startswith("random.")
            and qualified.count(".") == 1
            and qualified not in _ALLOWED_STDLIB_RANDOM
        ):
            self.report(
                node,
                f"ambient stdlib RNG `{qualified}` mutates hidden global state; "
                "use a seeded `random.Random` / `CombinedLfsrPrng` instance",
            )
            return
        if qualified.startswith("numpy.random."):
            tail = qualified.rsplit(".", 1)[1]
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    self.report(
                        node,
                        "`numpy.random.default_rng()` without a seed draws OS "
                        "entropy; pass an explicit seed",
                    )
                return
            if tail[:1].isupper():
                return  # Generator / PCG64 / SeedSequence constructors
            self.report(
                node,
                f"legacy ambient numpy RNG `{qualified}` uses the hidden global "
                "RandomState; use `numpy.random.default_rng(seed)`",
            )
