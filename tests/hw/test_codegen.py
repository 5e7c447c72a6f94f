"""Standalone C++ codegen: compile with g++, run, cross-check NumPy.

These tests machine-verify the generated fused dataflow with a real
compiler: the program asserts every feature-map element is produced
exactly once and nothing is read before being produced, then compares
the fused output against its own layer-by-layer reference. The printed
checksum is cross-checked against the NumPy simulator.
"""

import re
import shutil
import subprocess

import pytest

from repro import ConvSpec, Network, PoolSpec, ReLUSpec, TensorShape, extract_levels, toynet
from repro.hw.codegen import generate_standalone
from repro.sim import ReferenceExecutor, make_input
from repro.sim.weights import make_network_weights

gpp = shutil.which("g++")
needs_gpp = pytest.mark.skipif(gpp is None, reason="g++ not available")


def compile_and_run(levels, tip=(1, 1), tmp_path=None):
    params = make_network_weights(levels, integer=True)
    x = make_input(levels[0].in_shape, integer=True)
    code = generate_standalone(levels, params=params, x=x,
                               tip_h=tip[0], tip_w=tip[1])
    src = tmp_path / "fused_check.cpp"
    binary = tmp_path / "fused_check"
    src.write_text(code)
    subprocess.run([gpp, "-O2", "-std=c++17", "-o", str(binary), str(src)],
                   check=True, capture_output=True)
    result = subprocess.run([str(binary)], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert "FUSED_OK" in result.stdout
    checksum = float(re.search(r"checksum=([-\d.]+)", result.stdout).group(1))
    expected = ReferenceExecutor(levels, params=params).run(x)
    assert checksum == float(expected.sum())
    return result.stdout


@needs_gpp
class TestCompileAndRun:
    def test_toynet(self, tmp_path):
        levels = extract_levels(toynet(n=3, m=4, p=5, with_relu=True))
        out = compile_and_run(levels, tmp_path=tmp_path)
        assert "pyramids=9" in out

    def test_mini_vgg_with_pool_and_pad(self, tmp_path):
        net = Network("mini", TensorShape(3, 16, 16), [
            ConvSpec("c11", out_channels=4, kernel=3, stride=1, padding=1),
            ReLUSpec("r11"),
            ConvSpec("c12", out_channels=4, kernel=3, stride=1, padding=1),
            ReLUSpec("r12"),
            PoolSpec("p1", kernel=2, stride=2),
            ConvSpec("c21", out_channels=8, kernel=3, stride=1, padding=1),
            ReLUSpec("r21"),
        ])
        compile_and_run(extract_levels(net), tmp_path=tmp_path)

    def test_strided_grouped(self, tmp_path):
        net = Network("alexish", TensorShape(3, 19, 19), [
            ConvSpec("c1", out_channels=4, kernel=7, stride=2),
            ReLUSpec("r1"),
            PoolSpec("p1", kernel=3, stride=2),
            ConvSpec("c2", out_channels=6, kernel=3, stride=1, padding=1, groups=2),
        ])
        compile_and_run(extract_levels(net), tmp_path=tmp_path)

    def test_larger_tip(self, tmp_path):
        levels = extract_levels(toynet(n=2, m=3, p=4, size=11))
        out = compile_and_run(levels, tip=(7, 7), tmp_path=tmp_path)
        assert "pyramids=1" in out


class TestGeneration:
    def test_refuses_huge_embeds(self):
        from repro import vggnet_e

        levels = extract_levels(vggnet_e().prefix(5))
        with pytest.raises(ValueError):
            generate_standalone(levels)

    def test_contains_boundary_tables(self):
        levels = extract_levels(toynet())
        code = generate_standalone(levels)
        assert "OB_R0[]" in code and "OB_C1[]" in code
        assert "GRID_ROWS = 3" in code

    def test_deterministic(self):
        levels = extract_levels(toynet())
        assert generate_standalone(levels) == generate_standalone(levels)
