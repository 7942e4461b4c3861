"""In-memory spans around calls into the twoweight layers.

The package itself is not instrumented.  ``Tracer.install`` replaces each
layer function listed in ``LAYER_FUNCTIONS`` in every ``twoweight`` module
namespace that holds it -- the defining module and every consumer that
imported it by name, such as ``sweep.testing_report`` and
``certificates.testing_report`` -- with a wrapper that records a span.
``uninstall`` puts the original objects back.  Spans stay in memory until
``write`` is called once at the end of a run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# module -> public functions timed as layer spans
LAYER_FUNCTIONS = {
    "_kernels": ["testing_images"],
    "testing": ["testing_report", "admissible_pairs", "operator_norm"],
    "haar": ["synthesize", "chain_table"],
    "localization": ["ewl_radius", "wl_check"],
    "perfect_dyadic": ["random_kernel", "validate_kernel", "perfect_dyadic_operator"],
    "operators": ["random_ewl", "martingale_transform", "paraproduct", "haar_shift"],
    "certificates": ["full_certificate", "decompose_ABC", "split_B"],
    "stopping": ["build_stopping_family", "embedding_ratios"],
    "grid": ["build_grid"],
    "sweep": ["run_sweep", "run_trial", "generate_measure_pair"],
    "serialize": ["operator_from_dict", "load_json", "write_rows_csv", "dump_json"],
    "cli": ["main"],
}

# Work counts taken at the same boundaries: span name -> (count name, fn of
# (args, result)).  testing_images(wt, chain_idx, chain_val, alpha, beta,
# inv_sqrt_total, mass, lo, hi, pair_offsets, pair_partner).
COUNTERS = {
    "kernels.testing_images": [
        ("boxes", lambda args, result: len(args[7]) - 1),
        ("pairs", lambda args, result: len(args[10])),
    ],
    "testing.admissible_pairs": [("pairs", lambda args, result: len(result[1]))],
    "stopping.build_stopping_family": [("members", lambda args, result: len(result.members))],
}

# Private helpers that are counted, not timed: (module, function, count name).
# operator_norm takes its power-iteration path through testing._power_norm.
CALL_COUNTERS = [("testing", "_power_norm", "testing.operator_norm.power_path_calls")]


def span_name(module: str, func: str) -> str:
    """Metric prefix of a layer function; names may not start with '_'."""
    return f"{module.lstrip('_')}.{func}"


class Tracer:
    """Records spans (name, start, end, parent) and per-span work counts."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []  # (namespace or registry dict, key, original)
        self.missing = []  # layer functions this package version lacks

    # -- recording -----------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        counters = COUNTERS.get(name, ())

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            for count, measure in counters:
                self.counts[f"{name}.{count}"] += measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_counter(self, count, fn):
        def counted(*args, **kwargs):
            self.counts[count] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching --------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        """Rebind ``original`` in twoweight module namespaces and in their
        module-level registries (dicts such as ``sweep.FAMILY_BUILDERS``)."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "twoweight" or mod_name.startswith("twoweight.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = replacement
                    self._patched.append((namespace, attr, original))
                elif type(value) is dict:
                    for key, entry in list(value.items()):
                        if entry is original:
                            value[key] = replacement
                            self._patched.append((value, key, original))

    def install(self):
        """Wrap every layer function; a missing one is listed in ``missing``
        and its metrics read 0, so a renamed function shows in the record."""
        targets = [(m, f, self._wrap, span_name(m, f))
                   for m, funcs in LAYER_FUNCTIONS.items() for f in funcs]
        targets += [(m, f, self._wrap_counter, count) for m, f, count in CALL_COUNTERS]
        for module, func, wrap, name in targets:
            original = getattr(sys.modules.get(f"twoweight.{module}"), func, None)
            if original is None:
                self.missing.append(f"{module}.{func}")
            else:
                self._replace_everywhere(original, wrap(name, original))

    def uninstall(self):
        for container, key, original in reversed(self._patched):
            container[key] = original
        self._patched.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> (calls, total self seconds); self = span minus children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - child[i])
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path: str, item_spans=()):
        """One JSON line per span; spans under an item span share its id."""
        item = [-1] * len(self.spans)
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                item[i] = i if name in item_spans else (item[parent] if parent >= 0 else -1)
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item[i]}) + "\n")
