"""The benchmark workloads: fixed inputs, the timed computation, the
outputs it is checked on, and deliberately corrupted copies of them.

Each workload has four steps.  setup() imports loopchain and builds the
fixtures and complexes (everything in loopchain is lazy, so this is cheap
today and shows any work moved into construction).  compute(state) is the
timed computation.  observe(state, result) turns the result into plain
data, computing any extra chain-level values the checks need outside the
timed region.  checks(out) yields (name, passed) for every checked
computation: each is one attempted operation.  corruptions(out) yields
(name, corrupted copy) pairs whose named check must fail, so that a check
which always passes is caught on every run.

There are no random inputs: every workload computes the same thing on
every seed.
"""

import copy

import oracles

# Sizes; the README records why these were chosen.
HH_TOP = 11          # hh-ext2: HH_0..HH_11 of E(a, b)
S3_BAR_DEGREE = 5    # s3-power: BarHopfStructure(Z[S3], 5)
S3_CHECK_DEGREE = 2
RP_TOP = 9           # rp-power: lambda-tilde_2 on HH_0..HH_9
RP_CHECK_TOP = 6     # rp-power: chain-level checks on tokens of degree <= 6


def _corrupt(out, edit):
    bad = copy.deepcopy(out)
    edit(bad)
    return bad


class HhExt2:
    """homology of the Hochschild complex of E(a, b), over Z and over F2."""

    def setup(self):
        from loopchain.chains import F2, ZZ
        from loopchain.fixtures import exterior_two
        from loopchain.hochschild import hochschild_of_algebra
        return {
            name: hochschild_of_algebra(exterior_two(ring, max_degree=HH_TOP + 3),
                                        max_degree=HH_TOP + 1)
            for name, ring in (("Z", ZZ), ("F2", F2))
        }

    def compute(self, state):
        from loopchain.snf import homology
        return {name: homology(h.complex, range(HH_TOP + 1)) for name, h in state.items()}

    def observe(self, state, result):
        return {name: [[s.betti, list(s.torsion)] for s in summaries]
                for name, summaries in result.items()}

    def checks(self, out):
        ranks = oracles.hkr_exterior_dims((1, 1), HH_TOP)
        for ring in ("Z", "F2"):
            for n in range(HH_TOP + 1):
                yield "%s:HH_%d" % (ring, n), out[ring][n] == [ranks[n], []]

    def corruptions(self, out):
        def rank(bad):
            bad["Z"][3][0] += 1

        def torsion(bad):
            bad["Z"][HH_TOP][1] = [2]

        def field(bad):
            bad["F2"][0][0] = 0

        yield "Z:HH_3", _corrupt(out, rank)
        yield "Z:HH_%d" % HH_TOP, _corrupt(out, torsion)
        yield "F2:HH_0", _corrupt(out, field)


class S3Power:
    """lambda-tilde_2 on HH_0 and HH_1 of Z[S3], through the perturbed
    loop comultiplication on Cobar Bar Z[S3]."""

    def setup(self):
        from loopchain.dg import couniversal_twisting
        from loopchain.fixtures import group_ring_hopf
        from loopchain.groups import BUILTIN_GROUPS
        from loopchain.hochschild import hochschild_of_algebra
        from loopchain.perturbation import BarHopfStructure
        H = group_ring_hopf(BUILTIN_GROUPS["s3"])
        bh = BarHopfStructure(H, S3_BAR_DEGREE)
        return {
            "H": H,
            "hirsch": bh.hirsch(),
            "t": couniversal_twisting(H.algebra, bh.barH),
            "hoch": hochschild_of_algebra(H.algebra, bar=bh.barH, max_degree=2),
        }

    def compute(self, state):
        from loopchain.hochschild import power_map, power_map_on_homology
        lam = power_map(state["t"], state["hirsch"], state["H"], 2,
                        check_degree=S3_CHECK_DEGREE)
        return power_map_on_homology(state["hoch"], lam, range(2))

    def observe(self, state, result):
        return [{"generators": [list(g) for g in row["generators"]], "matrix": row["matrix"]}
                for row in result]

    def checks(self, out):
        oracle = oracles.group_loop_oracle(2)
        h0, h1 = out
        yield "HH_0", (all(g[0] == "free" for g in h0["generators"])
                       and len(h0["generators"]) == oracle["classes"])
        orders = [g[2] for g in h1["generators"] if g[0] == "torsion"]
        yield "HH_1", (all(g[0] == "torsion" for g in h1["generators"])
                       and sorted(orders) == oracle["h1_factors"])
        m, p = h0["matrix"], oracle["h0_map"]
        yield "lambda_2 on HH_0", (
            len(m) == len(p)
            and oracles.mat_mul(m, m) == m
            and oracles.determinantal_divisors(m) == oracles.determinantal_divisors(p)
            and oracles.determinantal_divisors(oracles.minus_identity(m))
            == oracles.determinantal_divisors(oracles.minus_identity(p)))
        m, f = h1["matrix"], oracle["h1_map"]
        yield "lambda_2 on HH_1", (
            len(m) == len(orders)
            and oracles.image_order(m, orders) == oracles.image_order(f, oracle["h1_orders"])
            and oracles.image_order(oracles.minus_identity(m), orders)
            == oracles.image_order(oracles.minus_identity(f), oracle["h1_orders"]))

    def corruptions(self, out):
        def drop_class(bad):
            bad[0]["generators"].pop()

        def torsion(bad):
            bad[1]["generators"][-1][2] = 3

        def identity(bad):
            n = len(bad[0]["matrix"])
            bad[0]["matrix"] = [[int(i == j) for j in range(n)] for i in range(n)]

        def zero(bad):
            bad[1]["matrix"] = [[0] * len(row) for row in bad[1]["matrix"]]

        yield "HH_0", _corrupt(out, drop_class)
        yield "HH_1", _corrupt(out, torsion)
        yield "lambda_2 on HH_0", _corrupt(out, identity)
        yield "lambda_2 on HH_1", _corrupt(out, zero)


# A term no image contains: y_0 does not exist and z_99 lies above RP_TOP.
BOGUS_TERM = [[0, [99]], 1]


def _rp_decode(tok):
    """c (x) w in the coHochschild complex of C(Sigma RP) as (l, (k_1, ..)):
    c = y_l (l = 0 for the counit), w = z_k1 ... z_km with z_k = s^-1 y_k."""
    c, w = tok.data
    return (0 if c.data == "1" else c.data[1],
            tuple(letter.data.data[1] for letter in w.data))


def _rp_plain(element):
    return sorted([list(_rp_decode(t)), c] for t, c in element.items())


class RpPower:
    """lambda-tilde_2 on the coHochschild complex of the Sigma RP^infinity
    model over F2, with its action on HH_0..HH_9."""

    def setup(self):
        from loopchain.dg import universal_twisting
        from loopchain.fixtures import rp_hirsch
        from loopchain.hochschild import cohochschild_complex
        C, hirsch = rp_hirsch(max_degree=RP_TOP + 2)
        return {
            "C": C,
            "hirsch": hirsch,
            "t": universal_twisting(C, hirsch.cobar),
            "hoch": cohochschild_complex(C, cobar=hirsch.cobar, max_degree=RP_TOP + 1),
        }

    def compute(self, state):
        from loopchain.hochschild import power_map, power_map_on_homology
        lam = power_map(state["t"], state["hirsch"], state["hirsch"].loop_hopf(), 2)
        return lam, power_map_on_homology(state["hoch"], lam, range(RP_TOP + 1))

    def observe(self, state, result):
        from loopchain.chains import Element, tensor_token
        from loopchain.dg import convolution_power
        lam, rows = result
        hoch, hirsch = state["hoch"], state["hirsch"]
        ring, one = hoch.ring, state["C"].counit_token
        conv = convolution_power(hirsch.loop_hopf(), 2)
        toks = [t for n in range(RP_CHECK_TOP + 1) for t in hoch.complex.basis.basis(n)]
        d = hoch.complex.d
        fibre = []
        for n in range(RP_CHECK_TOP + 1):
            for w in hirsch.cobar.complex.basis.basis(n):
                lifted = Element(ring, {tensor_token(one, u): c for u, c in conv(w).items()})
                fibre.append([_rp_plain(lam(tensor_token(one, w))), _rp_plain(lifted)])
        base = []
        for tok in toks:
            proj = sorted([_rp_decode(u)[0], c] for u, c in lam(tok).items()
                          if not u.data[1].data)
            base.append([list(_rp_decode(tok)), proj])
        return {
            "dims": [len(row["generators"]) for row in rows],
            "fibre": fibre,
            "base": base,
            "chain": [[_rp_plain(d(lam(t))), _rp_plain(lam(d(t)))] for t in toks],
            "formula": [[list(_rp_decode(t)), _rp_plain(lam(t))] for t in toks],
        }

    def checks(self, out):
        dims = oracles.loop_suspension_dims(RP_TOP)
        for n in range(RP_TOP + 1):
            yield "dim HH_%d" % n, out["dims"][n] == dims[n]
        yield "fibre is the convolution square", all(a == b for a, b in out["fibre"])
        yield "base projection is the identity", all(
            proj == ([[tok[0], 1]] if not tok[1] else []) for tok, proj in out["base"])
        yield "chain map", all(a == b for a, b in out["chain"])
        yield "composition-sum formula", all(
            {(t[0][0], tuple(t[0][1])): t[1] for t in image}
            == oracles.rp_power_image(tok[0], tuple(tok[1]), 2)
            for tok, image in out["formula"])

    def corruptions(self, out):
        def dim(bad):
            bad["dims"][4] += 1

        def fibre(bad):
            bad["fibre"][-1][0].append(BOGUS_TERM)

        def base(bad):
            bad["base"][0][1] = []

        def chain(bad):
            bad["chain"][-1][0].append(BOGUS_TERM)

        def formula(bad):
            bad["formula"][-1][1].append(BOGUS_TERM)

        yield "dim HH_4", _corrupt(out, dim)
        yield "fibre is the convolution square", _corrupt(out, fibre)
        yield "base projection is the identity", _corrupt(out, base)
        yield "chain map", _corrupt(out, chain)
        yield "composition-sum formula", _corrupt(out, formula)


WORKLOADS = {"hh-ext2": HhExt2(), "s3-power": S3Power(), "rp-power": RpPower()}
