"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.nt"
    path.write_text(
        "<e1> <type> <Text> .\n"
        "<e1> <language> <fre> .\n"
        "<e2> <type> <Date> .\n"
    )
    return str(path)


class TestGenerate:
    def test_generate_to_file(self, tmp_path, capsys):
        out = tmp_path / "tiny.nt"
        code = main(
            [
                "generate", "--triples", "2000", "--properties", "20",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) > 1800
        assert all(line.endswith(" .") for line in lines)
        # Progress chatter goes through the logger (stderr), not stdout.
        assert "wrote" in capsys.readouterr().err

    def test_generate_to_stdout(self, capsys):
        main(["generate", "--triples", "2000", "--properties", "20"])
        out = capsys.readouterr().out
        assert "<type>" in out

    def test_generated_file_round_trips(self, tmp_path):
        out = tmp_path / "round.nt"
        main(["generate", "--triples", "2000", "--properties", "20",
              "--out", str(out)])
        from repro.model.parser import parse_ntriples_text

        triples = parse_ntriples_text(out.read_text())
        assert len(triples) > 1800


class TestQuery:
    def test_sparql(self, data_file, capsys):
        code = main(
            [
                "query", "--data", data_file,
                "--sparql", "SELECT ?s WHERE { ?s <type> <Text> }",
            ]
        )
        assert code == 0
        assert "?s=<e1>" in capsys.readouterr().out

    def test_sql_on_triple_scheme(self, data_file, capsys):
        main(
            [
                "query", "--data", data_file, "--scheme", "triple",
                "--sql",
                "SELECT A.obj, count(*) FROM triples AS A "
                "WHERE A.prop = '<type>' GROUP BY A.obj",
            ]
        )
        out = capsys.readouterr().out
        assert "<Text>\t1" in out
        assert "<Date>\t1" in out

    def test_row_engine(self, data_file, capsys):
        main(
            [
                "query", "--data", data_file, "--engine", "row",
                "--sparql", "SELECT ?s WHERE { ?s <type> <Date> }",
            ]
        )
        assert "?s=<e2>" in capsys.readouterr().out

    def test_benchmark_query(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.data import generate_barton
        from repro.model.parser import serialize_ntriples

        dataset = generate_barton(n_triples=3_000, n_properties=30, seed=2)
        path = tmp_path / "barton.nt"
        path.write_text(serialize_ntriples(dataset.triples))
        code = cli_main(
            ["query", "--data", str(path), "--benchmark", "q1",
             "--mode", "cold"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "real" in captured.err
        assert captured.out.strip()

    def test_mutually_exclusive_query_args(self, data_file):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", "--data", data_file,
                    "--sparql", "SELECT * WHERE { ?s ?p ?o }",
                    "--sql", "SELECT x FROM t",
                ]
            )


class TestBench:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table6" in out and "figure7" in out

    def test_static_experiment(self, capsys):
        assert main(["bench", "--experiment", "table2"]) == 0
        assert "Coverage" in capsys.readouterr().out

    def test_dataset_experiment(self, capsys):
        code = main(
            ["bench", "--experiment", "table1", "--triples", "3000"]
        )
        assert code == 0
        assert "total triples" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["bench", "--experiment", "table99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_packaged_version_is_the_module_version(self, capsys):
        """One version: ``repro.__version__``.  The package metadata reads
        it and carries no copy of its own that could drift."""
        import pathlib
        import re

        import repro

        text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
        project = text.split("[project]\n")[1].split("\n[")[0]
        assert not re.search(r"^version\s*=", project, re.MULTILINE)
        assert 'dynamic = ["version"]' in project
        assert 'version = {attr = "repro.__version__"}' in text
        with pytest.raises(SystemExit):
            main(["--version"])
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"


class TestVerify:
    def test_verify_reports_agreement(self, capsys):
        code = main(
            ["verify", "--triples", "4000", "--properties", "30",
             "--seed", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "all implementations agree" in out

    def test_verify_result_object(self):
        from repro.data import generate_barton
        from repro.verify import verify_dataset

        dataset = generate_barton(
            n_triples=4_000, n_properties=30, n_interesting=28, seed=5
        )
        result = verify_dataset(dataset, queries=("q1", "q5"))
        assert result.ok
        # 6 SQL configurations x 2 queries + C-Store x 2.
        assert result.checks == 14
        assert "c-store/vertical" in result.configurations
