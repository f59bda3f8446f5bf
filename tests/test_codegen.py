"""Code generator tests: structural checks on the emitted C++ plus
compile-and-compare validation against the NumPy interpreter — bit for
bit, floats included, wherever the pipeline stays inside the typed
printer's exact operator set (skipped when no g++ is available)."""

import os
import subprocess

import numpy as np
import pytest

from repro.codegen import generate_cpp, generate_main
from repro.codegen.cexpr import CBuffer, ExprPrinter
from repro.dsl import Condition, Const, Float, Image, Int, Min, Variable
from repro.fusion import manual_grouping, schedule_pipeline
from repro.model import XEON_HASWELL
from repro.pipelines import BENCHMARKS
from repro.runtime import execute_reference

from conftest import needs_gxx, random_inputs


def compile_and_run(pipeline, grouping, inputs, tmpdir):
    cpp = generate_cpp(pipeline, grouping) + generate_main(pipeline)
    src = os.path.join(tmpdir, "pipe.cpp")
    with open(src, "w") as fh:
        fh.write(cpp)
    exe = os.path.join(tmpdir, "pipe")
    subprocess.run(
        ["g++", "-O2", "-fopenmp", "-fwrapv", "-fno-fast-math",
         "-ffp-contract=off", "-o", exe, src],
        check=True, capture_output=True,
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
        """The generated blur must have the Fig. 3 structure: parallel
        collapsed tile loops, a scratch buffer, both stages inside."""
        g = manual_grouping(blur_pipeline, [["blurx", "blury"]], [[3, 64, 64]])
        cpp = generate_cpp(blur_pipeline, g)
        assert "#pragma omp parallel for schedule(static) collapse(2)" in cpp
        assert "// stage blurx" in cpp and "// stage blury" in cpp
        assert "__slot0" in cpp or "__buf_blurx" in cpp
        assert 'extern "C" void pipeline_run' in cpp
        assert "#pragma GCC ivdep" in cpp

    def test_unfused_has_two_tile_nests(self, blur_pipeline):
        g = manual_grouping(
            blur_pipeline, [["blurx"], ["blury"]],
            [[3, 32, 32], [3, 32, 32]],
        )
        cpp = generate_cpp(blur_pipeline, g)
        assert cpp.count("collapse(2)") == 2
        # blurx is a cross-group intermediate: full local buffer
        assert "__full_blurx" in cpp

    def test_reduction_emitted_serially(self, histogram_pipeline):
        g = manual_grouping(histogram_pipeline, [["hist"], ["norm"]],
                            [[8], [8]])
        cpp = generate_cpp(histogram_pipeline, g)
        assert "// reduction hist" in cpp
        assert "+=" in cpp

    def test_storage_folding_reduces_buffers(self):
        # a 4-stage chain: with folding, dead buffers share slots.
        p = BENCHMARKS["UM"].build(**BENCHMARKS["UM"].small_kwargs)
        g = manual_grouping(
            p, [["blurx", "blury", "sharpen", "masked"]], [[3, 16, 128]]
        )
        folded = generate_cpp(p, g, fold_storage=True)
        unfolded = generate_cpp(p, g, fold_storage=False)
        assert folded.count("std::vector<float> __slot") < unfolded.count(
            "std::vector<float> __buf_"
        )

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

    @pytest.mark.parametrize("abbrev", ["UM", "HC", "BG", "CP"])
    def test_benchmarks_dp_schedule(self, abbrev, rng, tmp_path):
        b = BENCHMARKS[abbrev]
        p = b.build(**b.small_kwargs)
        inputs = random_inputs(p, rng)
        ref = execute_reference(p, inputs)
        g = schedule_pipeline(p, XEON_HASWELL, strategy="dp",
                              max_states=500000)
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
