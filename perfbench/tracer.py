"""Spans around the public entry points of each polyeff module, installed from outside.

A wrapped call records a span (id, parent id, name, start, end) and adds
to its layer's ``calls`` and ``self_s``.  Self time is the span minus the
time of wrapped calls nested inside it, so a recursive entry point
counts its time once and the self times of all spans under a root add up
to the root's duration.  Spans stay in memory, capped per layer, and are
written out once at the end of the pass.
"""

from __future__ import annotations

import fnmatch
import itertools
import json
import time

# at most this many spans per layer are kept for the span file; counts and
# self times always cover every call
SPAN_CAP = 2000


# (layer, owners, attribute patterns, extra stat) for every traced entry point.
# An owner is a module name or "module.Class"; the extra stat is the cache
# attribute whose growth marks a miss (hit_ratio), or "useful" for the share
# of calls that return something other than None.
REL_VIEWS = ("interp.AtomRel", "interp.FunRel", "interp.ForallRel")
TARGETS = (
    ("paramlab.build_model", ("paramlab",), ("build_model",), None),
    ("paramlab.verify", ("paramlab",), ("verify_*", "free_algebra_negative_control"), None),
    ("interp.vtype", ("interp.Model",), ("interp_vtype",), "_vty"),
    ("interp.ctype", ("interp.Model",), ("interp_ctype",), "_cty"),
    ("interp.rel", ("interp.Model",), ("interp_rel",), "_rel"),
    ("interp.rel.contains", REL_VIEWS, ("contains",), None),
    ("interp.rel.pairs", REL_VIEWS, ("pairs",), None),
    ("interp.rels_for_pair", ("interp.Model",), ("rels_for_pair",), None),
    ("interp.families", ("interp.Model",), ("_families",), None),
    ("interp.hom_tables", ("interp.Model",), ("_hom_tables",), None),
    ("interp.project", ("interp.Model",), ("project_poly", "transport"), None),
    ("interp.eval", ("interp.Model",), ("_eval",), None),
    ("finmodel.alg_rels", ("finmodel",), ("enumerate_alg_rels",), None),
    ("finmodel.set_rels", ("finmodel",), ("enumerate_set_rels",), None),
    ("finmodel.homs", ("finmodel",), ("enumerate_homs",), None),
    ("finmodel.monad_laws", ("finmodel",), ("check_monad_laws",), None),
    ("typecheck.synth", ("typecheck",), ("synth",), None),
    ("typecheck.typecheck", ("typecheck",), ("typecheck",), None),
    ("typecheck.derive_all_types", ("typecheck",), ("derive_all_types",), None),
    ("randterms.judgment", ("randterms.TermGenerator",), ("random_judgment",), None),
    ("randterms.subst_sample", ("randterms.TermGenerator",), ("random_subst_sample",), None),
    ("randterms.term_for", ("randterms.TermGenerator",), ("term_for",), "useful"),
    ("surface.parse", ("surface",), ("parse_type", "parse_term", "parse_file"), None),
    ("encodings.elaborate", ("encodings",), ("elaborate_type", "elaborate_term"), None),
)
LAYERS = tuple(t[0] for t in TARGETS)
HIT_RATIO_LAYERS = tuple(t[0] for t in TARGETS if t[3] not in (None, "useful"))


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # name -> [calls, self seconds, hits or useful results]
        self.stats: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.oob = 0
        # one frame per open span: [span id, time covered by nested spans]
        self._stack: list[list] = [[0, 0.0]]
        self._ids = itertools.count(1)

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0])

    def root(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as a top-level span."""
        return self._wrap(name, fn, None)(*args, **kwargs)

    def _wrap(self, name: str, fn, extra):
        st = self._stat(name)
        stack, spans, clock, ids = self._stack, self.spans, self.clock, self._ids

        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            stack.append(frame)
            if extra is not None and extra != "useful":
                before = len(getattr(args[0], extra))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st[0] += 1
                st[1] += dur - frame[1]
                parent = stack[-1]
                parent[1] += dur
                if st[0] <= SPAN_CAP:
                    spans.append((frame[0], parent[0], name, t0, t1))
            if extra == "useful":
                st[2] += result is not None
            elif extra is not None:
                st[2] += len(getattr(args[0], extra)) == before
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules) -> list[str]:
        """Wrap every entry point in ``TARGETS``; returns the patterns not found.

        ``modules`` maps short names ("interp", ...) to every loaded polyeff
        module.  A module-level function is replaced in each of them that
        imported it by name, so calls through those aliases are traced too.
        """
        missing = []
        for name, owners, patterns, extra in TARGETS:
            self._stat(name)
            for owner_name in owners:
                mod_name, _, cls_name = owner_name.partition(".")
                owner = modules[mod_name]
                if cls_name:
                    owner = getattr(owner, cls_name)
                for pattern in patterns:
                    attrs = [a for a in list(vars(owner)) if fnmatch.fnmatchcase(a, pattern)
                             and callable(vars(owner)[a])]
                    if not attrs:
                        missing.append(f"{owner_name}.{pattern}")
                    for attr in attrs:
                        fn = vars(owner)[attr]
                        traced = self._wrap(name, fn, extra)
                        if cls_name:
                            setattr(owner, attr, traced)
                            continue
                        for mod in modules.values():
                            for key, val in list(vars(mod).items()):
                                if val is fn:
                                    setattr(mod, key, traced)
        oob_cls = modules["interp"].OutOfBoundError
        base_init = oob_cls.__init__

        def counting_init(exc, *args, **kwargs):
            self.oob += 1
            base_init(exc, *args, **kwargs)

        oob_cls.__init__ = counting_init
        return missing

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for name in LAYERS:
            calls, self_s, extra = self.stats.get(name, (0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            if name in HIT_RATIO_LAYERS:
                out[f"{name}.hit_ratio"] = extra / calls if calls else 0.0
        calls, _, useful = self.stats.get("randterms.term_for", (0, 0.0, 0))
        out["randterms.term_for.useful_ratio"] = useful / calls if calls else 0.0
        out["interp.oob.count"] = self.oob
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

