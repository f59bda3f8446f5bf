#!/usr/bin/env python
"""Print the C that serves a scheduled pipeline, as a program.

Schedules the paper's blur pipeline with the DP model and emits its
fused, overlap-tiled code (Fig. 3) in the form the executor runs: one C
step entry computing both blur stages over a step's regions, the group's
tile walk baked into a step table, and a ``pipeline_run`` that runs the
table in one ``repro_run_steps`` call.

If g++ is available the example also compiles and runs the generated code
and checks it against the NumPy interpreter, bit for bit.

Run:  python examples/generate_cpp.py [output.c]
"""

import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from repro import XEON_HASWELL, execute_reference, schedule_pipeline
from repro.codegen import generate_cpp, generate_main

#: the artifact store's language and flags
C_FLAGS = ["-x", "c", "-O3", "-fwrapv", "-fno-fast-math", "-ffp-contract=off"]


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))
    from conftest import build_blur  # the Fig. 1 blur pipeline

    pipeline = build_blur(rows=254, cols=382)
    grouping = schedule_pipeline(pipeline, XEON_HASWELL, strategy="dp")
    print(grouping.describe())

    code = generate_cpp(pipeline, grouping)
    target = sys.argv[1] if len(sys.argv) > 1 else None
    if target:
        with open(target, "w") as fh:
            fh.write(code + generate_main(pipeline))
        print(f"\nwrote {target}")
    else:
        print("\n" + "\n".join(code.splitlines()[-60:]))
        print(f"... ({len(code.splitlines())} lines total)")

    if shutil.which("g++") is None:
        print("\n(g++ not found; skipping compile-and-compare)")
        return

    workdir = tempfile.mkdtemp(prefix="repro_cgen_")
    src = os.path.join(workdir, "blur.c")
    with open(src, "w") as fh:
        fh.write(code + generate_main(pipeline))
    exe = os.path.join(workdir, "blur")
    subprocess.run(["g++", *C_FLAGS, "-o", exe, src, "-lm"], check=True)

    rng = np.random.default_rng(0)
    img = rng.random(pipeline.image_shape("img"), dtype=np.float32)
    in_path = os.path.join(workdir, "img.bin")
    out_path = os.path.join(workdir, "out.bin")
    img.tofile(in_path)
    subprocess.run([exe, in_path, out_path], check=True)

    out_stage = pipeline.outputs[0]
    got = np.fromfile(out_path, dtype=np.float32).reshape(
        pipeline.domain_extents(out_stage)
    )
    ref = execute_reference(pipeline, {"img": img})[out_stage.name]
    assert np.array_equal(got, ref), "generated C differs from the interpreter"
    print("\nOK: the generated C reproduces the interpreter bit for bit.")


if __name__ == "__main__":
    main()
