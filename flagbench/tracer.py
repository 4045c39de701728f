"""Per-layer self times and counts, taken from outside the library.

The tracer wraps the public functions of each flagheight module, and the
hot methods `WeylElement.act_root`, `RootSystem.weight_to_root_coords` and
`RootSystem.inner`, in place and only while it is installed; the library's
files are not edited.  A wrapped call's self time is its duration minus the
time spent in the wrapped calls it makes.  Functions that are not wrapped
count toward the self time of the wrapped function that called them, and
everything a CLI call does is inside the span of `cli.main`, so the self
times of one call add up to its traced duration.
"""

from __future__ import annotations

import sys
import time

# wrapped function -> (time metric, count metric or None)
WRAPPED = {
    "rootsys.parse_cartan_spec": ("rootsys.build_s", None),
    "rootsys.build_root_system": ("rootsys.build_s", None),
    "rootsys.RootSystem.weight_to_root_coords":
        ("rootsys.coords_s", "rootsys.coords_calls"),
    "rootsys.RootSystem.inner": ("rootsys.coords_s", "rootsys.coords_calls"),
    "weyl.coset_representatives": ("weyl.cosets_s", None),
    "weyl.enumerate_weyl": ("weyl.cosets_s", None),
    "weyl.WeylElement.act_root": ("weyl.act_root_s", "weyl.act_root_calls"),
    "weyl.to_dominant_dotted": ("weyl.dotted_s", None),
    "weyl.dotted_act": ("weyl.dotted_s", None),
    "parabolic.build_parabolic": ("parabolic.self_s", None),
    "parabolic.check_ample": ("parabolic.self_s", None),
    "parabolic.psi_grading": ("parabolic.self_s", None),
    "charpoly.dim_polynomial":
        ("charpoly.dim_poly_s", "charpoly.dim_poly_calls"),
    "charpoly.f_j": ("charpoly.dim_poly_s", None),
    "charpoly.weyl_dim": ("charpoly.dim_poly_s", None),
    "charpoly.freudenthal":
        ("charpoly.freudenthal_s", "charpoly.freudenthal_calls"),
    "charpoly.formal_character": ("charpoly.freudenthal_s", None),
    "height.height_substitution": ("height.substitution_s", None),
    "height.height_fixed_point": ("height.fixed_point_s", None),
    "height.height_harmo_bott": ("height.harmo_bott_s", None),
    "jantzen.jantzen_rhs": ("jantzen.rhs_s", None),
    "jantzen.lambda0_component": ("jantzen.rhs_s", None),
    "cli.main": ("cli.self_s", None),
}

TIME_METRICS = tuple(dict.fromkeys(t for t, _ in WRAPPED.values()))
COUNT_METRICS = tuple(dict.fromkeys(c for _, c in WRAPPED.values() if c)) + (
    "weyl.cosets", "charpoly.freudenthal_distinct", "height.bits")


def _cosets(result):
    return len(result.reps) if hasattr(result, "reps") else len(result)


def _bits(result):
    return result.value.numerator.bit_length() + \
        result.value.denominator.bit_length()


# counters computed from a wrapped function's result
_RESULT_COUNTERS = {
    "weyl.coset_representatives": ("weyl.cosets", _cosets),
    "weyl.enumerate_weyl": ("weyl.cosets", _cosets),
    "height.height_substitution": ("height.bits", _bits),
    "height.height_fixed_point": ("height.bits", _bits),
    "height.height_harmo_bott": ("height.bits", _bits),
}


class Tracer:
    """Install with `with tracer:`; read `take_times()` after each call and
    `counts` after a pass."""

    def __init__(self):
        self._times = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._freudenthal_args: set = set()
        self._stack: list = []
        self._saved: list = []

    def take_times(self) -> dict:
        """Raw self times since the last call, per time metric."""
        times, self._times = self._times, dict.fromkeys(TIME_METRICS, 0.0)
        return times

    def pause(self, seconds: float):
        """Take time spent outside the library (host-speed sampling) out
        of the self time of the span it interrupted."""
        if self._stack:
            self._stack[-1][0] += seconds

    def reset_counts(self):
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._freudenthal_args = set()

    def _wrap(self, name, fn):
        time_metric, count_metric = WRAPPED[name]
        counter = _RESULT_COUNTERS.get(name)
        is_freudenthal = name == "charpoly.freudenthal"
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self._times[time_metric] += elapsed - frame[0]
            if count_metric:
                self.counts[count_metric] += 1
            if counter:
                self.counts[counter[0]] += counter[1](result)
            if is_freudenthal:
                self._freudenthal_args.add(_freudenthal_key(*args, **kwargs))
                self.counts["charpoly.freudenthal_distinct"] = \
                    len(self._freudenthal_args)
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "flagheight" or n.startswith("flagheight.")]
        for name in WRAPPED:
            module_name, *path = name.split(".")
            owner = sys.modules[f"flagheight.{module_name}"]
            for part in path[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, path[-1])
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapper)
                continue
            # module-level functions are also bound by name in every module
            # that imported them
            for module in modules:
                if getattr(module, path[-1], None) is original:
                    self._patch(module, path[-1], wrapper)
        return self

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


def _freudenthal_key(rs, lam0, subset=None):
    return (str(rs.spec), tuple(lam0),
            None if subset is None else tuple(sorted(subset)))
