"""Golden CLI output: every corpus run gives the exit code, stdout and stderr recorded in cli_golden.json."""

import json

from make_cli_golden import GOLDEN, corpus, digests


def test_corpus_names_each_argv_once():
    argvs = [" ".join(argv) for argv in corpus()]
    assert len(argvs) == len(set(argvs))


def test_cli_output_matches_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert list(got) == list(golden)
    assert [argv for argv in got if got[argv] != golden[argv]] == []
