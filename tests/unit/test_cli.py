"""Unit tests for the octopus CLI."""

import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli") / "dataset"
    code = main(
        [
            "generate",
            "--kind",
            "citation",
            "--out",
            str(directory),
            "--size",
            "120",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    return str(directory)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        arguments = build_parser().parse_args(
            ["generate", "--out", "x", "--kind", "social"]
        )
        assert arguments.kind == "social"

    def test_complete_requires_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["complete", "dir"])

    def test_serve_args(self):
        arguments = build_parser().parse_args(
            ["serve", "dir", "--port", "0", "--executor", "processes"]
        )
        assert arguments.executor == "processes"
        assert arguments.port == 0
        assert arguments.host == "127.0.0.1"
        with pytest.raises(SystemExit):  # the threads executor is gone
            build_parser().parse_args(["serve", "dir", "--executor", "threads"])

    def test_query_url_without_dataset(self):
        """With --url the dataset positional may be omitted entirely."""
        arguments = build_parser().parse_args(
            ["query", "--url", "http://127.0.0.1:1", '{"service": "stats"}']
        )
        assert arguments.dataset is None
        assert arguments.request == '{"service": "stats"}'

    def test_query_with_dataset_still_parses(self):
        arguments = build_parser().parse_args(["query", "dir", "req"])
        assert arguments.dataset == "dir"
        assert arguments.request == "req"


class TestGenerate:
    def test_generate_social(self, tmp_path, capsys):
        out = tmp_path / "qq"
        code = main(
            ["generate", "--kind", "social", "--out", str(out), "--size", "60"]
        )
        assert code == 0
        assert (out / "dataset.json").exists()
        assert "qq-synthetic" in capsys.readouterr().out


class TestCommands:
    def test_influencers(self, dataset_dir, capsys):
        code = main(
            ["influencers", dataset_dir, "data mining", "-k", "3", "--fast"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "spread" in output
        assert "  1. " in output or "1. " in output

    def test_suggest_by_id(self, dataset_dir, capsys):
        code = main(["suggest", dataset_dir, "0", "-k", "2", "--fast"])
        assert code == 0
        output = capsys.readouterr().out
        assert "keywords :" in output
        assert "dominant topic" in output

    def test_paths_with_json_export(self, dataset_dir, tmp_path, capsys):
        payload_path = tmp_path / "tree.json"
        code = main(
            [
                "paths",
                dataset_dir,
                "0",
                "--threshold",
                "0.05",
                "--json",
                str(payload_path),
                "--fast",
            ]
        )
        assert code == 0
        payload = json.loads(payload_path.read_text())
        assert "nodes" in payload and "links" in payload

    def test_paths_reverse(self, dataset_dir, capsys):
        code = main(
            ["paths", dataset_dir, "50", "--reverse", "--fast"]
        )
        assert code == 0
        assert "influenced_by" in capsys.readouterr().out

    def test_radar(self, dataset_dir, capsys):
        code = main(["radar", dataset_dir, "em algorithm", "--fast"])
        assert code == 0
        assert "machine learning" in capsys.readouterr().out

    def test_complete_keywords(self, dataset_dir, capsys):
        code = main(
            ["complete", dataset_dir, "--keywords", "data", "--fast"]
        )
        assert code == 0
        assert "data mining" in capsys.readouterr().out

    def test_complete_users(self, dataset_dir, capsys):
        code = main(["complete", dataset_dir, "--users", "a", "--fast"])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_stats(self, dataset_dir, capsys):
        code = main(["stats", dataset_dir, "--fast"])
        assert code == 0
        assert "graph.num_nodes" in capsys.readouterr().out


class TestQueryCommand:
    def test_query_influencers_json(self, dataset_dir, capsys):
        request = json.dumps(
            {"service": "influencers", "keywords": ["data mining"], "k": 3}
        )
        code = main(["query", dataset_dir, request, "--fast"])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] is True
        assert response["service"] == "influencers"
        assert len(response["payload"]["seeds"]) == 3

    def test_query_stats(self, dataset_dir, capsys):
        code = main(["query", dataset_dir, '{"service": "stats"}', "--fast"])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["payload"]["graph.num_nodes"] > 0

    def test_query_error_envelope_and_exit_code(self, dataset_dir, capsys):
        request = json.dumps(
            {"service": "influencers", "keywords": ["definitely not real"]}
        )
        code = main(["query", dataset_dir, request, "--fast"])
        assert code == 2
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] is False
        assert response["error"]["code"] == "invalid_request"

    def test_query_malformed_json(self, dataset_dir, capsys):
        code = main(["query", dataset_dir, "{not json", "--fast"])
        assert code == 2
        response = json.loads(capsys.readouterr().out)
        assert response["error"]["code"] == "malformed_request"

    def test_query_batch(self, dataset_dir, capsys):
        batch = json.dumps(
            [
                {"service": "complete", "prefix": "da"},
                {"service": "complete", "prefix": "da"},
                {"service": "stats"},
            ]
        )
        code = main(["query", dataset_dir, batch, "--batch", "--fast"])
        assert code == 0
        responses = json.loads(capsys.readouterr().out)
        assert len(responses) == 3
        assert all(response["ok"] for response in responses)
        assert responses[1]["cache_hit"] is True

    def test_query_request_file(self, dataset_dir, tmp_path, capsys):
        request_path = tmp_path / "request.json"
        request_path.write_text('{"service": "complete", "prefix": "da"}')
        code = main(["query", dataset_dir, f"@{request_path}", "--fast"])
        assert code == 0
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] is True


class TestErrors:
    def test_unknown_keyword_exit_code(self, dataset_dir, capsys):
        code = main(
            ["influencers", dataset_dir, "definitely not a keyword", "--fast"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_user_exit_code(self, dataset_dir, capsys):
        code = main(["suggest", dataset_dir, "Nobody Nowhere", "--fast"])
        assert code == 2

    def test_missing_dataset(self, tmp_path, capsys):
        code = main(["stats", str(tmp_path / "nope"), "--fast"])
        assert code == 2


class TestBackendOptions:
    def test_parser_accepts_backend_and_workers(self):
        parser = build_parser()
        arguments = parser.parse_args(
            ["stats", "dir", "--backend", "threads", "--workers", "4"]
        )
        assert arguments.backend == "threads"
        assert arguments.workers == 4

    def test_parser_rejects_unknown_backend(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["stats", "dir", "--backend", "quantum"])

    @pytest.mark.parametrize("kernel", ["cuda", "legacy", "vectorized", "native"])
    def test_parser_rejects_unknown_rr_kernel(self, kernel):
        """There is one RR kernel: the retired flag is rejected outright."""
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["stats", "dir", "--rr-kernel", kernel])

    def test_threads_backend_answers_match_worker_counts(
        self, dataset_dir, capsys
    ):
        """--backend threads gives the same answer at any --workers."""
        outputs = []
        for workers in ("1", "3"):
            code = main(
                [
                    "influencers",
                    dataset_dir,
                    "data mining",
                    "-k",
                    "3",
                    "--fast",
                    "--backend",
                    "threads",
                    "--workers",
                    workers,
                ]
            )
            assert code == 0
            captured = capsys.readouterr().out
            # drop the latency line: wall clock is not part of the answer
            outputs.append(
                "\n".join(
                    line
                    for line in captured.splitlines()
                    if not line.startswith("latency")
                )
            )
        assert outputs[0] == outputs[1]

    def test_query_batch_with_workers(self, dataset_dir, capsys):
        request = {"service": "complete", "prefix": "da", "limit": 3}
        code = main(
            [
                "query",
                dataset_dir,
                json.dumps([request, request]),
                "--batch",
                "--fast",
                "--workers",
                "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["ok"] for entry in payload] == [True, True]
        assert payload[0]["payload"] == payload[1]["payload"]
