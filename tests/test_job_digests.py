from .job_digests import workload_digest


def test_digest_does_not_depend_on_the_graph_directory(tmp_path):
    # `invariance` prints its graph path, so the token must replace it
    first, second = tmp_path / "a", tmp_path / "a-longer-name"
    first.mkdir()
    second.mkdir()
    assert workload_digest("deterministic", 7, first) == workload_digest(
        "deterministic", 7, second
    )
