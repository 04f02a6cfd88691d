"""The names of the package that the benchmark harness in ``perfbench/``
reads.  The harness itself runs outside this suite, so a deletion that
breaks it shows here first.  The test only reads ``perfbench/``."""

import inspect
import operator
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# attributes of the offline artifacts that ``perfbench/harness.py`` reads
HARNESS_READS = (
    "rom.matrix_sample_entries", "rom.vector_sample_entries", "pattern.size",
    "deim_a.l", "deim_f.l", "pod.n_max", "pod.n_energy", "mesh",
)
# what it reads of a geometry, an assembled system, its full-order solution
# and a query's solution
GEOMETRY_READS = ("cut_elements.size", "active_dofs.size")
SYSTEM_READS = ("A", "f", "active_dofs")


def test_benchmark_call_surface_exists(monkeypatch, small_run, small_config):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import cutrom._kernels
    import cutrom.artifacts  # noqa: F401
    import cutrom.assembly
    import cutrom.fom
    import cutrom.geometry
    import cutrom.pipeline
    import cutrom.rom
    import spans

    # resolves every function the traced run wraps, and raises on a missing one
    spans.Tracer("t")
    assert hasattr(cutrom._kernels, "BACKEND")
    assert hasattr(cutrom.pipeline, "physics_from_config")
    assert "geom" in inspect.signature(cutrom.rom.rom_online_solve).parameters
    art, _ = small_run
    for path in HARNESS_READS:
        operator.attrgetter(path)(art)

    # the query and solve streams, and the counts read at the reference parameter
    mu = cutrom.geometry.ParameterPoint(1.1, 1.1)
    geom = cutrom.geometry.build_cut_geometry(art.mesh, mu)
    for path in GEOMETRY_READS:
        operator.attrgetter(path)(geom)
    system = cutrom.assembly.assemble_system(geom, cutrom.pipeline.physics_from_config(small_config))
    sol = cutrom.fom.solve_fom(system)
    for path in SYSTEM_READS:
        operator.attrgetter(path)(system)
    assert ((system.f - system.A @ sol.u)[system.active_dofs]).shape == system.active_dofs.shape
    query = cutrom.rom.rom_online_solve(art.rom, mu, art.pod.n_max, geom=geom)
    assert query.u_lifted.shape == sol.u.shape

    # the traced run labels the two DEIM builds by the ``kind`` keyword
    kinds = []
    original = cutrom.pipeline.build_deim_operator

    def spy(*args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return original(*args, **kwargs)

    monkeypatch.setattr(cutrom.pipeline, "build_deim_operator", spy)
    cutrom.pipeline.run_offline(small_config)
    assert sorted(kinds) == ["matrix", "vector"]

