"""Tests for Matrix Project and Matrix Reloaded."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ci import BuildStatus, JenkinsServer, MatrixProject, matrix_reloaded
from repro.util import CiError, Simulator


@pytest.fixture()
def jenkins():
    sim = Simulator()
    return sim, JenkinsServer(sim, executors=32)


def test_paper_matrix_is_448_configurations():
    """Slide 15: test_environments = 14 images x 32 clusters = 448."""
    project = MatrixProject(
        "test_environments",
        axes={
            "image": [f"img{i}" for i in range(14)],
            "cluster": [f"c{i}" for i in range(32)],
        },
    )
    assert project.cell_count == 14 * 32 == 448
    assert len(project.cells()) == 448


def test_cells_cover_cartesian_product():
    project = MatrixProject("m", axes={"a": ["1", "2"], "b": ["x", "y", "z"]})
    cells = project.cells()
    assert len(cells) == 6
    assert {"a": "2", "b": "y"} in cells
    assert len({tuple(sorted(c.items())) for c in cells}) == 6


def test_empty_axis_rejected():
    with pytest.raises(CiError):
        MatrixProject("m", axes={"a": []})


def test_duplicate_axis_values_rejected():
    with pytest.raises(CiError):
        MatrixProject("m", axes={"a": ["x", "x"]})


def test_trigger_all_builds_every_cell(jenkins):
    sim, server = jenkins

    def runner(build):
        yield sim.timeout(10.0)
        return BuildStatus.SUCCESS

    server.register_job("m", runner)
    project = MatrixProject("m", axes={"a": ["1", "2"], "b": ["x", "y"]})
    builds = project.trigger_all(server)
    sim.run()
    assert len(builds) == 4
    assert all(b.status == BuildStatus.SUCCESS for b in builds)
    params = {tuple(sorted(b.parameters.items())) for b in builds}
    assert len(params) == 4


def test_matrix_reloaded_retries_only_failed(jenkins):
    sim, server = jenkins
    flaky_state = {"bad_fixed": False}

    def runner(build):
        yield sim.timeout(1.0)
        if build.parameters["cluster"] == "bad" and not flaky_state["bad_fixed"]:
            return BuildStatus.FAILURE
        return BuildStatus.SUCCESS

    server.register_job("m", runner)
    project = MatrixProject("m", axes={"cluster": ["a", "b", "bad"]})
    project.trigger_all(server)
    sim.run()
    flaky_state["bad_fixed"] = True
    retries = matrix_reloaded(project, server)
    sim.run()
    assert len(retries) == 1
    assert retries[0].parameters == {"cluster": "bad"}
    last = server.job("m").last_build(parameters={"cluster": "bad"})
    assert last.status == BuildStatus.SUCCESS


def test_matrix_reloaded_includes_unstable_by_default(jenkins):
    sim, server = jenkins
    calls = {"n": 0}

    def runner(build):
        calls["n"] += 1
        yield sim.timeout(1.0)
        return BuildStatus.UNSTABLE if calls["n"] == 1 else BuildStatus.SUCCESS

    server.register_job("m", runner)
    project = MatrixProject("m", axes={"cluster": ["only"]})
    project.trigger_all(server)
    sim.run()
    retries = matrix_reloaded(project, server)
    sim.run()
    assert len(retries) == 1


@given(st.lists(st.integers(1, 6), min_size=1, max_size=4))
def test_cell_count_is_product_of_axis_sizes(sizes):
    axes = {f"axis{i}": [f"v{j}" for j in range(n)] for i, n in enumerate(sizes)}
    project = MatrixProject("m", axes=axes)
    expected = 1
    for n in sizes:
        expected *= n
    assert project.cell_count == expected
    assert len(project.cells()) == expected
