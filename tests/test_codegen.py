"""Code generator tests: structural checks on the emitted C, proof that
it is the translation unit that serves, plus compile-and-compare
validation against the NumPy interpreter — bit for bit, floats included,
wherever the pipeline stays inside the typed printer's exact operator set
(skipped when no g++ is available)."""

import os
import re
import subprocess
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from repro.codegen import generate_cpp, generate_main
from repro.codegen.cexpr import CBuffer, ExprPrinter
from repro.dsl import Condition, Const, Float, Image, Int, Min, Variable
from repro.fusion import manual_grouping, schedule_pipeline
from repro.model import XEON_HASWELL
from repro.pipelines import BENCHMARKS
from repro.runtime import KernelTier, execute_reference
from repro.runtime import nativestore
from repro.runtime.executor import (
    _tiled_geometry,
    _walk_plan,
    grouping_kernels,
    resolve_group_kernel,
)

from conftest import needs_gxx, random_inputs

#: how the artifact store compiles a unit, less ``-fPIC -shared``
C_FLAGS = ["-x", "c", "-O3", "-fwrapv", "-fno-fast-math", "-ffp-contract=off"]


@lru_cache(maxsize=None)
def dp_case(abbrev):
    """A benchmark at ``small_kwargs`` and its DP grouping, scheduled once
    per session (PB's DP takes seconds)."""
    b = BENCHMARKS[abbrev]
    p = b.build(**b.small_kwargs)
    return p, schedule_pipeline(p, XEON_HASWELL, strategy="dp",
                                max_states=500000)


def compile_and_run(pipeline, grouping, inputs, tmpdir):
    code = generate_cpp(pipeline, grouping) + generate_main(pipeline)
    src = os.path.join(tmpdir, "pipe.c")
    with open(src, "w") as fh:
        fh.write(code)
    exe = os.path.join(tmpdir, "pipe")
    subprocess.run(
        ["g++", *C_FLAGS, "-o", exe, src, "-lm"], check=True,
        capture_output=True,
    )
    in_paths, out_paths = [], []
    for img in pipeline.images:
        path = os.path.join(tmpdir, f"{img.name}.bin")
        inputs[img.name].tofile(path)
        in_paths.append(path)
    for out in pipeline.outputs:
        out_paths.append(os.path.join(tmpdir, f"out_{out.name}.bin"))
    subprocess.run([exe] + in_paths + out_paths, check=True)
    return {
        out.name: np.fromfile(path, dtype=out.scalar_type.np_dtype).reshape(
            pipeline.domain_extents(out)
        )
        for out, path in zip(pipeline.outputs, out_paths)
    }


class TestExprPrinter:
    def setup_method(self):
        self.x = Variable(Int, "x")
        self.img = Image(Float, "img", [8])
        self.buf = {"img": CBuffer("img", [0], [8])}
        self.printer = ExprPrinter(self.buf, {})

    def test_floordiv_uses_helper(self):
        assert "r_floordiv" in self.printer.expr(self.x // 2)

    def test_mod_uses_helper(self):
        assert "r_mod" in self.printer.expr(self.x % 3)

    def test_access_clamps(self):
        c = self.printer.expr(self.img(self.x - 1))
        assert "r_clamp" in c and "img[" in c

    def test_condition_printing(self):
        cond = Condition(self.x, ">=", 1) & Condition(self.x, "<", 7)
        c = self.printer.cond(cond)
        assert "&&" in c and ">=" in c

    def test_min_in_index_uses_integer_helper(self):
        assert "r_min" in self.printer.int_expr(Min(self.x, 5))

    def test_float_const_in_index_rejected(self):
        with pytest.raises(TypeError):
            self.printer.int_expr(Const(1.5))


class TestStructure:
    def test_blur_code_shape_matches_fig3(self, blur_pipeline):
        """The generated blur has the Fig. 3 structure in the form that
        serves: one step entry running both stages over a step's regions,
        the group's tile walk baked into one step table, and
        ``pipeline_run`` running it as a program of one op in one
        call — plain C."""
        g = manual_grouping(blur_pipeline, [["blurx", "blury"]], [[3, 64, 64]])
        code = generate_cpp(blur_pipeline, g)
        assert "/* blurx */" in code and "/* blury */" in code
        assert "static const int64_t repro_table_0[" in code
        assert code.count("(int64_t)(uintptr_t)repro_step_0;") == 1
        assert code.count("repro_run_program(__ctl, 1);") == 1
        assert ("void pipeline_run(const float *restrict img, "
                "float *restrict out_blury)") in code
        for cxx in ("#pragma omp", "std::vector", 'extern "C"'):
            assert cxx not in code

    def test_unfused_has_two_tile_nests(self, blur_pipeline):
        g = manual_grouping(
            blur_pipeline, [["blurx"], ["blury"]],
            [[3, 32, 32], [3, 32, 32]],
        )
        code = generate_cpp(blur_pipeline, g)
        # both groups are ops of one program, run in one call
        assert code.count("= (int64_t)(uintptr_t)repro_step_") == 2
        assert code.count("repro_run_program(__ctl, 1);") == 1
        # blurx is a cross-group intermediate: a full buffer in the arena
        assert "float *const __full_blurx = (float *)(__arena_0 + " in code

    def test_reduction_emitted_serially(self, histogram_pipeline):
        g = manual_grouping(histogram_pipeline, [["hist"], ["norm"]],
                            [[8], [8]])
        cpp = generate_cpp(histogram_pipeline, g)
        assert "// reduction hist" in cpp
        assert "+=" in cpp

    def test_mismatched_grouping_rejected(self, blur_pipeline, updown_pipeline):
        g = manual_grouping(blur_pipeline, [["blurx", "blury"]], [[3, 8, 8]])
        with pytest.raises(ValueError):
            generate_cpp(updown_pipeline, g)

    def test_main_harness_mentions_all_files(self, blur_pipeline):
        main = generate_main(blur_pipeline)
        assert "fread" in main and "fwrite" in main and "int main" in main


@needs_gxx
class TestCompileAndCompare:
    def test_blur_fused(self, blur_pipeline, rng, tmp_path):
        inputs = random_inputs(blur_pipeline, rng)
        ref = execute_reference(blur_pipeline, inputs)
        g = manual_grouping(blur_pipeline, [["blurx", "blury"]], [[3, 17, 23]])
        out = compile_and_run(blur_pipeline, g, inputs, str(tmp_path))
        assert np.array_equal(ref["blury"], out["blury"])

    def test_scaled_chain(self, updown_pipeline, rng, tmp_path):
        inputs = random_inputs(updown_pipeline, rng)
        ref = execute_reference(updown_pipeline, inputs)
        g = manual_grouping(updown_pipeline, [["fine", "down", "up"]], [[13]])
        out = compile_and_run(updown_pipeline, g, inputs, str(tmp_path))
        assert np.array_equal(ref["up"], out["up"])

    def test_histogram_reduction(self, histogram_pipeline, rng, tmp_path):
        inputs = random_inputs(histogram_pipeline, rng)
        ref = execute_reference(histogram_pipeline, inputs)
        g = manual_grouping(histogram_pipeline, [["hist"], ["norm"]],
                            [[8], [8]])
        # the reduction accumulates in ufunc.at's order and type: exact
        out = compile_and_run(histogram_pipeline, g, inputs, str(tmp_path))
        assert np.array_equal(ref["norm"], out["norm"])

    @pytest.mark.parametrize("abbrev", ["UM", "HC", "BG", "CP", "PB", "MI"])
    def test_benchmarks_dp_schedule(self, abbrev, rng, tmp_path):
        p, g = dp_case(abbrev)
        inputs = random_inputs(p, rng)
        ref = execute_reference(p, inputs)
        out = compile_and_run(p, g, inputs, str(tmp_path))
        for k in ref:
            if abbrev == "CP":
                # the tone curve is a pow(): libm and NumPy differ in
                # the last place, and the LUT index it feeds can flip
                assert np.allclose(
                    ref[k].astype(np.float64), out[k].astype(np.float64),
                    atol=3e-2, rtol=1e-3,
                ), (abbrev, k)
            else:
                assert np.array_equal(ref[k], out[k]), (abbrev, k)

    def test_harris_bit_exact(self, rng, tmp_path):
        # Every operation in the dtype NumPy computes it in: exact.
        b = BENCHMARKS["HC"]
        p = b.build(**b.small_kwargs)
        inputs = random_inputs(p, rng)
        ref = execute_reference(p, inputs)
        g = schedule_pipeline(p, XEON_HASWELL, strategy="dp")
        out = compile_and_run(p, g, inputs, str(tmp_path))
        assert np.array_equal(ref["corners"], out["corners"])

    def test_pyramid_bit_exact(self, rng, tmp_path):
        b = BENCHMARKS["PB"]
        p = b.build(**b.small_kwargs)
        inputs = random_inputs(p, rng)
        ref = execute_reference(p, inputs)
        g = schedule_pipeline(p, XEON_HASWELL, strategy="greedy")
        out = compile_and_run(p, g, inputs, str(tmp_path))
        for k in ref:
            assert np.array_equal(ref[k], out[k]), k


#: a step or reduction entry of a unit, border functions included
_ENTRY = re.compile(
    r"^(?:static void __attribute__\(\(.*?\)\) |void )"
    r"repro_(?:step|reduce)_\d+\w*\(.*?^\}\n",
    re.M | re.S,
)
_TABLE = re.compile(
    r"static const int64_t repro_table_\d+\[\d+\] = \{(.*?)\};", re.S
)


def _entries(source):
    """``source``'s step and reduction functions, entry numbers erased."""
    return Counter(
        re.sub(r"repro_(step|reduce)_\d+", r"repro_\1_N", f)
        for f in _ENTRY.findall(source)
    )


@needs_gxx
@pytest.mark.native
@pytest.mark.parametrize("abbrev", ["UM", "HC", "CP", "PB", "BG", "MI"])
def test_codegen_prints_the_served_unit(abbrev, monkeypatch):
    """Every entry of the unit the executor compiles for a DP grouping is
    in ``generate_cpp``'s output byte for byte (up to its number), and
    every tiled group's baked table is the step table that serves it at
    one thread: the executor's own plan, packed by the served kernel."""
    p, g = dp_case(abbrev)
    native = KernelTier.NATIVE
    units = []
    real_load = nativestore.load

    def load(source, schedule_cache=None):
        units.append(source)
        return real_load(source, schedule_cache)

    monkeypatch.setattr(nativestore, "load", load)
    grouping_kernels(p, g.groups, native)
    (unit,) = units
    code = generate_cpp(p, g)
    served = _entries(unit)
    assert served and not served - _entries(code)

    baked = [
        np.array(body.replace(",", " ").split(), np.int64)
        for body in _TABLE.findall(code)
    ]
    tiled = []
    for members, tiles in zip(g.groups, g.tile_sizes):
        geom = _tiled_geometry(p, members)
        if geom is not None:
            tiled.append((geom, tiles))
    assert len(baked) == len(tiled)
    for (geom, tiles), table in zip(tiled, baked):
        kernel = resolve_group_kernel(p, geom, native)
        if not kernel.native:
            # CP's tone curve is a pow(): it serves on its NumPy kernel
            assert abbrev == "CP"
            continue
        (chunk,) = _walk_plan(p, geom, tiles, 1, kernel).chunks
        assert np.array_equal(table, chunk.table.rows.reshape(-1))
