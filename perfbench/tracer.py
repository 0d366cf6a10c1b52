"""Span tracer for the public functions of the pentagramma library.

While installed, each listed function is rebound, in its defining module and
in every pentagramma module that imported it by name, to a wrapper that
records one span per call: the function, the span that called it, the op the
call belongs to, start, duration, and whether an exception left the call.
Spans stay in memory in flat arrays and are written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "pentagramma"

# The layers are the package's modules; the functions are their public entry
# points.  A name that a later commit removes is reported as absent.
LAYERS = {
    "elliptic_kernel": ("complete_K", "am", "jacobi_triple", "incomplete_F",
                        "jacobi_sum", "half_angle_tan"),
    "napier_uniformization": ("frame_vectors", "alpha_sequence", "beta_sequence",
                              "omega_of_k", "k_of_omega"),
    "cone_spectrum": ("cone_coefficients", "solve_characteristic",
                      "modulus_from_spectrum"),
    "gauss_projection": ("pentagon_from_frame", "gauss_theorem_residuals",
                         "recover_from_pm1", "recover_from_pm2", "confocal_residual"),
    "poncelet": ("chord_step", "trajectory", "modulus_of_config", "closure_residual",
                 "search_closing_config"),
    "dilogarithm": ("li2", "rogers_L", "spence_residual", "pentagon_five_term"),
    "pentagram_algebra": ("complete_from_two", "build_sphere_vertices", "verify_napier"),
    "verify": tuple(f"criterion_{n}" for n in range(1, 11)),
    "cli": ("main",),
}

# position of the modulus k among the positional arguments of kernel functions
KERNEL_K_ARG = {"complete_K": 0, "am": 1, "jacobi_triple": 1, "incomplete_F": 1,
                "jacobi_sum": 2, "half_angle_tan": 2}

# span status: how the call ended
OK, ERROR_RAISED, ERROR_PASSED, OTHER_EXCEPTION = 0, 1, 2, 3


class Tracer:
    """Wrappers for the LAYERS functions and the spans they record."""

    def __init__(self):
        self.names: list[str] = []      # "module.function", indexed by function id
        self.absent: list[str] = []
        self.typed_error = importlib.import_module(f"{PACKAGE}.errors").PentagrammaError
        self.fid = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.dur = array("d")
        self.status = array("b")
        self.kernel_calls = 0
        self.kernel_repeat_k = 0
        self._k_seen: set = set()
        self._stack = [-1]
        self._op_id = -1
        wrappers = {}                   # id(original) -> (original, wrapper)
        for module_name, functions in LAYERS.items():
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            for func in functions:
                original = getattr(module, func, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{func}")
                    continue
                k_arg = KERNEL_K_ARG.get(func) if module_name == "elliptic_kernel" else None
                wrappers[id(original)] = (original, self._wrap(len(self.names), original, k_arg))
                self.names.append(f"{module_name}.{func}")
        self.index = {name: fid for fid, name in enumerate(self.names)}
        self._bindings = self._find_bindings(wrappers)

    def _find_bindings(self, wrappers):
        """Every (namespace, key, original, wrapper) that refers to a traced function.

        Namespaces are the package's module dicts and the dicts they hold
        whose values are (description, function) tuples, such as the
        battery's criterion table.
        """
        found = []
        prefix = PACKAGE + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or (mod_name != PACKAGE and not mod_name.startswith(prefix)):
                continue
            for key, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    found.append((vars(module), key, value, hit[1]))
                elif isinstance(value, dict):
                    for entry_key, entry in value.items():
                        if not isinstance(entry, tuple):
                            continue
                        swapped = tuple(wrappers[id(x)][1] if id(x) in wrappers
                                        and wrappers[id(x)][0] is x else x for x in entry)
                        if any(a is not b for a, b in zip(swapped, entry)):
                            found.append((value, entry_key, entry, swapped))
        return found

    def _wrap(self, fid: int, original, k_arg):
        clock = time.perf_counter
        fids, parents, ops = self.fid, self.parent, self.op
        starts, durs, statuses = self.start, self.dur, self.status
        typed_error = self.typed_error

        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            ops.append(self._op_id)
            starts.append(0.0)
            durs.append(0.0)
            statuses.append(OK)
            if k_arg is not None:
                self._note_k(args[k_arg] if len(args) > k_arg else kwargs.get("k"))
            stack.append(idx)
            t0 = clock()
            try:
                return original(*args, **kwargs)
            except typed_error as exc:
                # count a typed error once, in the innermost traced call it left
                if getattr(exc, "_perfbench_span", None) is None:
                    exc._perfbench_span = idx
                    statuses[idx] = ERROR_RAISED
                else:
                    statuses[idx] = ERROR_PASSED
                raise
            except BaseException:
                statuses[idx] = OTHER_EXCEPTION
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                durs[idx] = t1 - t0

        return functools.update_wrapper(traced, original)

    def _note_k(self, k) -> None:
        self.kernel_calls += 1
        if k in self._k_seen:
            self.kernel_repeat_k += 1
        else:
            self._k_seen.add(k)

    def install(self, op_id: int) -> None:
        """Rebind every traced function; spans recorded now carry op_id."""
        self._op_id = op_id
        for namespace, key, _, wrapper in self._bindings:
            namespace[key] = wrapper

    def uninstall(self) -> None:
        for namespace, key, original, _ in reversed(self._bindings):
            namespace[key] = original

    def bound_keys(self, module_name: str) -> list[str]:
        """Names in pentagramma.<module_name> that the tracer rebinds."""
        namespace = vars(sys.modules[f"{PACKAGE}.{module_name}"])
        return sorted(key for ns, key, _, _ in self._bindings if ns is namespace)

    # ---------------------------------------------------------------- results

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "fid": np.frombuffer(self.fid, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "dur": np.frombuffer(self.dur, dtype=np.float64),
            "status": np.frombuffer(self.status, dtype=np.int8),
        }

    def write_spans(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> tuple[dict[str, float], dict[str, str]]:
        """Per-layer metrics (calls, self time, typed errors, ratios) and the ratios' bases."""
        a = self.arrays()
        fid, parent, dur, status = a["fid"], a["parent"], a["dur"], a["status"]
        n_funcs = len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        calls = np.bincount(fid, minlength=n_funcs)
        self_s = np.bincount(fid, weights=self_time, minlength=n_funcs)
        errors = np.bincount(fid[status == ERROR_RAISED], minlength=n_funcs)

        def per_function(name):
            i = self.index.get(name)
            return (0, 0.0, 0) if i is None else (int(calls[i]), float(self_s[i]), int(errors[i]))

        out: dict[str, float] = {}
        totals = {}
        for module, functions in LAYERS.items():
            rows = [per_function(f"{module}.{func}") for func in functions]
            totals[module] = (sum(r[1] for r in rows), sum(r[2] for r in rows))
            for func, (n_calls, seconds, _) in zip(functions, rows):
                if module == "verify":
                    out[f"verify.criterion_{int(func.rsplit('_', 1)[1]):02d}.self_s"] = seconds
                else:
                    out[f"{module}.{func}.calls"] = n_calls
                    out[f"{module}.{func}.self_s"] = seconds
        for module, (seconds, n_errors) in totals.items():
            out[f"{module}.self_s"] = seconds
            out[f"{module}.errors"] = n_errors

        def fid_of(name):
            return self.index.get(name, -1)

        def children(child_name, parent_name):
            """Spans of child_name called directly by parent_name, and how many parents had one."""
            c, p = fid_of(child_name), fid_of(parent_name)
            if c < 0 or p < 0:
                return 0, 0
            mask = (fid == c) & has_parent
            direct = parent[mask][fid[parent[mask]] == p]
            return len(direct), len(np.unique(direct))

        def ratio(num, den):
            return num / den if den else 0.0

        am_in_f, inversions = children("elliptic_kernel.am", "elliptic_kernel.incomplete_F")
        out["elliptic_kernel.am_per_incomplete_F"] = ratio(am_in_f, inversions)
        out["elliptic_kernel.repeat_k_share"] = ratio(self.kernel_repeat_k, self.kernel_calls)
        omega_in_k, _ = children("napier_uniformization.omega_of_k",
                                 "napier_uniformization.k_of_omega")
        out["napier_uniformization.omega_of_k_per_k_of_omega"] = ratio(
            omega_in_k, out["napier_uniformization.k_of_omega.calls"])
        closure_in_search, _ = children("poncelet.closure_residual",
                                        "poncelet.search_closing_config")
        searches = out["poncelet.search_closing_config.calls"]
        out["poncelet.closure_residual_per_search"] = ratio(closure_in_search, searches)
        search = fid_of("poncelet.search_closing_config")
        found = int(np.sum((fid == search) & (status == OK))) if search >= 0 else 0
        out["poncelet.search_success_share"] = ratio(found, searches)
        bases = {
            "elliptic_kernel.am_per_incomplete_F": f"{inversions} inversions",
            "elliptic_kernel.repeat_k_share": f"{self.kernel_calls} kernel calls",
            "napier_uniformization.omega_of_k_per_k_of_omega":
                f"{out['napier_uniformization.k_of_omega.calls']} k_of_omega calls",
            "poncelet.closure_residual_per_search": f"{searches} searches",
            "poncelet.search_success_share": f"{searches} searches",
        }
        return out, bases
