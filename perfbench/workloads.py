"""The benchmark's three workloads.

Each request calls the library's public functions in the order the
command-line tool would (``cmd_check``, ``cmd_bisim``, ``cmd_charform``,
``cmd_reduce``), starting from the generated text.  ``run`` is the timed
part; ``summarize`` reduces its result to a small comparable output after
the timer stops; ``verify`` checks that output against answers from
:mod:`reference` or from the construction of the input, outside every
timed region.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from time import perf_counter

import inputs
import reference as ref


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:32]


def _omega(tl, text: str):
    return tl.OmegaProfile(frozenset(text.split(",")))


def _to_nnf(tl, raw):
    return tl.to_nnf(raw, tl.infer_omega(raw).closed_under_negation())


def _truth_rows(tl, model, formulas):
    ev = tl.Evaluator(model)
    return [ev.truth_rows(f) for f in formulas], ev.stats


def _add_stats(tr, stats) -> None:
    tr.add("checker.atom_evals", stats.atom_evals)
    tr.add("checker.quantifier_expansions", stats.quantifier_expansions)
    tr.add("checker.memo_hits", stats.memo_hits)


def _relations(spec):
    return [(name, ar) for name, ar, _ in spec.relations]


class Workload:
    name = ""
    #: requests per block of the pool; a traced run repeats whole blocks
    block = 0

    def __init__(self):
        #: how many checked facts came from the construction of an input and
        #: how many from the reference
        self.sources: Counter = Counter()

    def pool(self, seed: int, blocks: int) -> list:
        raise NotImplementedError

    def run(self, item, tl, tr):
        raise NotImplementedError

    def summarize(self, item, raw):
        raise NotImplementedError

    def count(self, item, raw, tl, tr) -> None:
        """Per-request counters of a traced run, read after the request."""

    def probe(self, item, tl, tr) -> None:
        """Traced runs only: measurements taken before the request, outside
        its span."""

    def verify(self, item, out, tl) -> list[tuple[str, str]]:
        """(layer, problem) for every way the output is wrong."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class CheckTeam(Workload):
    name = "check-team"
    block = sum(c for _, c in inputs.LADDER) + 6

    def pool(self, seed, blocks):
        return inputs.check_team_pool(seed, blocks)

    def run(self, item, tl, tr):
        t = item.texts
        if item.kind == "reduce":
            return self._reduce(item, tl, tr)
        if item.kind == "check":
            model = tr.call("model.load_model", tl.load_model, t["model"])
        else:
            structure, ftype = tr.call("model.load_model", tl.load_model, t["model"],
                                       require_team=False)
            team_def = tr.call("fo.parse_fo", tl.parse_fo, t["team_fo"], ftype.variables)
            model = tr.call("model.materialize_fo_team", tl.materialize_fo_team,
                            structure, ftype, team_def).model
        raw = tr.call("syntax.parse_formula", tl.parse_formula, t["formula"], model.ftype)
        phi = tr.call("syntax.to_nnf", _to_nnf, tl, raw)
        (truth,), stats = tr.call("checker.truth_rows", _truth_rows, tl, model, [phi])
        return model.team, truth, stats

    def _reduce(self, item, tl, tr):
        f = item.facts
        psi = tr.call("reduce.parse_kahr", tl.parse_kahr, item.texts["kahr"])
        encode = tl.reduce_to_inclusion if f["target"] == "incl" else tl.reduce_to_equality
        enc = tr.call("reduce.encode", encode, psi)
        text = tr.call("syntax.print_formula", tl.print_formula, enc)
        spec = f["structure"]
        structure = tr.call("model.Structure", tl.Structure, spec.universe,
                            ref.relation_sets(spec))
        model = tr.call("reduce.witness_model", tl.witness_model, psi, structure, f["skolem"])
        ext = tr.call("reduce.extract_classical_model", tl.extract_classical_model,
                      model, psi)
        return text, model.team, ext

    def summarize(self, item, raw):
        if item.kind == "reduce":
            text, team, ext = raw
            rels = tuple(sorted((k, tuple(sorted(v))) for k, v in ext.structure.relations.items()))
            return (text, digest(sorted(team)), tuple(ext.structure.universe),
                    tuple(sorted(ext.skolem.items())), rels)
        team, truth, _ = raw
        return digest(sorted(team)), digest(sorted(zip(team, truth)))

    def count(self, item, raw, tl, tr):
        if item.kind == "reduce":
            tr.add("model.rows", len(raw[1]))
            return
        tr.add("model.rows", len(raw[0]))
        _add_stats(tr, raw[2])

    def verify(self, item, out, tl):
        f = item.facts
        if item.kind == "reduce":
            return self._verify_reduce(item, out, tl)
        spec = f["model"]
        team = ref.Team.of(spec)
        truth = team.truth(f["formula"])
        self.sources["reference"] += 1
        if out[0] != digest(sorted(spec.team)):
            return [("model", "materialized team differs from the definition")]
        if out[1] != digest(sorted(zip(spec.team, truth))):
            return [("checker", "truth vector differs from the reference")]
        return []

    def _verify_reduce(self, item, out, tl):
        text, team_digest, universe, skolem, rels = out
        f = item.facts
        spec, sk = f["structure"], f["skolem"]
        A = spec.universe
        problems = []
        witness_team = [(a, sk[a], b, c) for a in A for b in A for c in A]
        if team_digest != digest(sorted(witness_team)):
            problems.append(("reduce", "witness team is not {(a, f(a), b, c)}"))
        # the canonical witness team satisfies the encoding at every row
        wt = ref.Team(("x", "y", "z", "v"), ref.relation_sets(spec), witness_team)
        if wt.eval(ref.parse(text)) != wt.all:
            problems.append(("reduce", "encoding fails on the canonical witness team"))
        orbit = []
        a = A[0]
        while a not in orbit:
            orbit.append(a)
            a = sk[a]
        if set(universe) != set(orbit) or dict(skolem) != {a: sk[a] for a in orbit}:
            problems.append(("reduce", "extracted model is not the Skolem orbit of row 0"))
        self.sources["construction"] += 3
        # the extracted model satisfies the sentence, by the library's
        # Tarski evaluator and by the reference
        structure = tl.Structure(universe, {k: frozenset(v) for k, v in rels})
        psi = tl.parse_kahr(item.texts["kahr"])
        if not tl.eval_fo(tl.kahr_fo_sentence(psi), structure, {}):
            problems.append(("reduce", "extracted model fails the sentence under eval_fo"))
        if not ref.kahr_holds({k: frozenset(v) for k, v in rels}, universe, f["matrix"]):
            problems.append(("reduce", "extracted model fails the sentence"))
        self.sources["reference"] += 1
        return problems


# ---------------------------------------------------------------------------


def rows_bucket(rows: int) -> str:
    return "rows8-31" if rows < 32 else "rows32-63" if rows < 64 else "rows64-81"


class BisimFix(Workload):
    name = "bisim-fix"
    block = 10

    def pool(self, seed, blocks):
        return inputs.bisim_pool(seed, blocks)

    def run(self, item, tl, tr):
        t = item.texts
        left = tr.call("model.load_model", tl.load_model, t["left"])
        right = tr.call("model.load_model", tl.load_model, t["right"])
        omega = _omega(tl, t["omega"])
        left_pt = tl.PointedModel(left, tuple(t["at_left"].split()))
        right_pt = tl.PointedModel(right, tuple(t["at_right"].split()))
        res = tr.call("bisim.bisimilarity", tl.bisimilarity, left_pt, right_pt, omega, None)
        pairs = sorted(res.relation.pairs)
        w = res.witness
        atom = None
        if w is not None and w.kind == "atom":
            atom = tr.call("syntax.print_formula", tl.print_formula, w.detail)
        return res, pairs, atom, len(left.team) + len(right.team)

    def summarize(self, item, raw):
        res, pairs, atom, _ = raw
        rel, w = res.relation, res.witness
        wit = None
        if w is not None:
            detail = atom if w.kind == "atom" else (w.detail[0], tuple(w.detail[1]))
            wit = (w.kind, w.stage, tuple(w.pair), detail)
        return res.related, rel.stage, rel.fixpoint, len(pairs), digest(pairs), wit

    def probe(self, item, tl, tr):
        """Stage 0 alone (a depth-0 call), to split the request's bisim time
        into stage 0 and refinement.  A probe that raises records nothing;
        the request itself reports the failure."""
        t = item.texts
        try:
            left, right = tl.load_model(t["left"]), tl.load_model(t["right"])
            omega = _omega(tl, t["omega"])
            left_pt = tl.PointedModel(left, tuple(t["at_left"].split()))
            right_pt = tl.PointedModel(right, tuple(t["at_right"].split()))
            t0 = perf_counter()
            res = tl.bisimilarity(left_pt, right_pt, omega, 0)
            dt = perf_counter() - t0
            atoms = len(tl.canonical_atoms(left.ftype, omega))
        except Exception:
            return
        bucket = rows_bucket(item.facts["rows"])
        tr.add("bisim.stage0_s", dt)
        tr.add(f"bisim.stage0_s.{bucket}", dt)
        tr.add("bisim.pairs_stage0", len(res.relation.pairs))
        tr.add("bisim.atoms", atoms)

    def count(self, item, raw, tl, tr):
        res, pairs, _, rows = raw
        rel = res.relation
        tr.add("bisim.rounds", rel.stage + 1 if rel.fixpoint else rel.stage)
        tr.add("bisim.pairs_final", len(pairs))
        tr.add("model.rows", rows)

    def verify(self, item, out, tl):
        f = item.facts
        related, stage, fixpoint, n_pairs, pairs_digest, wit = out
        L, R = ref.Team.of(f["left"]), ref.Team.of(f["right"])
        rf = ref.Refinement(L, R, _relations(f["left"]), inputs.PROFILES[f["profile"]])
        k = rf.fixpoint()
        i, j = f["at"]
        self.sources["reference"] += 1
        problems = []
        want = rf.related(k, i, j)
        if f["pair"] == "copy":
            self.sources["construction"] += 1
            if not related:
                problems.append(("bisim", "a relabelled copy is not bisimilar at the image row"))
        if related != want:
            problems.append(("bisim", f"verdict {related}, reference {want}"))
        pairs = sorted(rf.relation(k))
        if (stage, fixpoint, n_pairs, pairs_digest) != (k, True, len(pairs), digest(pairs)):
            problems.append(("bisim", f"relation differs: stage {stage}, reference {k}"))
        if related:
            if wit is not None:
                problems.append(("bisim", "witness for a related pair"))
            return problems
        if wit is None:
            return problems + [("bisim", "no witness for an unrelated pair")]
        kind, w_stage, pair, detail = wit
        first = next(s for s in range(k + 1) if not rf.related(s, i, j))
        if pair != (i, j) or w_stage != first:
            problems.append(("bisim", f"witness for {pair} at stage {w_stage}, "
                                      f"pair removed at stage {first}"))
        if kind == "atom":
            detail = ref.parse(detail)
        why = ref.replay_witness(rf, (i, j), w_stage, kind, detail)
        if why is not None:
            problems.append(("bisim", f"witness does not replay: {why}"))
        return problems


# ---------------------------------------------------------------------------


def _dag_and_tree_size(tl, roots) -> tuple[int, int]:
    """Distinct formula objects reachable from the roots, and the total tree
    size of the roots with shared subformulas counted at each use."""
    size: dict[int, int] = {}
    stack = [(r, False) for r in roots]
    while stack:
        node, done = stack.pop()
        if id(node) in size:
            continue
        kids = _children(tl, node)
        if done:
            size[id(node)] = 1 + sum(size[id(c)] for c in kids)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in kids if id(c) not in size)
    return len(size), sum(size[id(r)] for r in roots)


def _children(tl, node):
    out = []
    for name in getattr(node, "__dataclass_fields__", ()):
        value = getattr(node, name)
        if isinstance(value, tl.Formula):
            out.append(value)
        elif isinstance(value, tuple):
            out.extend(v for v in value if isinstance(v, tl.Formula))
    return out


class CharformEF(Workload):
    name = "charform-ef"
    block = 9

    def pool(self, seed, blocks):
        return inputs.charform_pool(seed, blocks)

    def run(self, item, tl, tr):
        t = item.texts
        model = tr.call("model.load_model", tl.load_model, t["model"])
        omega = _omega(tl, t["omega"])
        chis = tr.call("charform.char_formula_all", tl.char_formula_all,
                       model, int(t["k"]), omega)
        iso = tr.call("model.load_model", tl.load_model, t["iso"])
        pert = tr.call("model.load_model", tl.load_model, t["perturbed"])
        iso_truth, iso_stats = tr.call("checker.truth_rows", _truth_rows, tl, iso, chis)
        pert_truth, pert_stats = tr.call("checker.truth_rows", _truth_rows, tl, pert, chis)
        text = None
        if t["print"]:
            text = tr.call("syntax.print_formula", tl.print_formula, chis[int(t["print"])])
        return chis, iso_truth, pert_truth, text, (iso_stats, pert_stats)

    def summarize(self, item, raw):
        _, iso_truth, pert_truth, text, _ = raw
        printed = None if text is None else (len(text), digest(text))
        return digest([tuple(v) for v in iso_truth]), digest([tuple(v) for v in pert_truth]), printed

    def count(self, item, raw, tl, tr):
        chis, iso_truth, pert_truth, text, stats = raw
        dag, tree = _dag_and_tree_size(tl, chis)
        tr.add("charform.dag_nodes", dag)
        tr.add("charform.tree_nodes", tree)
        for st in stats:
            _add_stats(tr, st)
        tr.add("model.rows", 3 * len(iso_truth[0]))
        if text is not None:
            tr.add("syntax.printed_mb", len(text) / 1e6)

    def expected(self, item):
        """Per copy, the truth vector of every chi_i: chi_i holds at a row
        of the copy exactly when that row is k-bisimilar to row i."""
        f = item.facts
        src = ref.Team.of(f["model"])
        kinds, rels, k = inputs.PROFILES[f["profile"]], _relations(f["model"]), f["k"]
        out = []
        for key in ("iso", "perturbed"):
            copy = ref.Team.of(f[key])
            cls = ref.Refinement(src, copy, rels, kinds).classes(k)
            n = len(src.team)
            out.append((copy, [tuple(cls[i] == cls[n + j] for j in range(len(copy.team)))
                               for i in range(n)]))
        return out

    def verify(self, item, out, tl):
        f = item.facts
        iso_digest, pert_digest, printed = out
        (iso, iso_want), (pert, pert_want) = self.expected(item)
        self.sources["reference"] += 2
        problems = []
        image = f["image"]
        self.sources["construction"] += 1
        if not all(iso_want[i][image[i]] for i in range(len(image))):
            problems.append(("bench", "reference: chi_i fails at the image of row i"))
        if iso_digest != digest(iso_want):
            problems.append(("charform", "truth on the isomorphic copy differs"))
        if pert_digest != digest(pert_want):
            problems.append(("charform", "truth on the perturbed copy differs"))
        if printed is not None:
            problems += self._verify_print(item, printed, tl, iso, iso_want, pert, pert_want)
        return problems

    def _verify_print(self, item, printed, tl, iso, iso_want, pert, pert_want):
        """Print the formula again, check that the text is the one the
        request produced, and evaluate the parsed text on both copies."""
        t = item.texts
        i = int(t["print"])
        chis = tl.char_formula_all(tl.load_model(t["model"]), int(t["k"]), _omega(tl, t["omega"]))
        text = tl.print_formula(chis[i])
        if (len(text), digest(text)) != printed:
            return [("syntax", "printing the same formula twice gave different text")]
        parsed = ref.parse(text)
        self.sources["reference"] += 1
        if iso.truth(parsed) != iso_want[i] or pert.truth(parsed) != pert_want[i]:
            return [("syntax", "printed formula evaluates differently from chi_i")]
        return []


WORKLOADS = {w.name: w for w in (CheckTeam, BisimFix, CharformEF)}
