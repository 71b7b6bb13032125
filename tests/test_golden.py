import os

import golden_corpus

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_golden_corpus_byte_identical(tmp_path):
    golden_corpus.build(str(tmp_path))
    got, want = golden_corpus.tree(str(tmp_path)), golden_corpus.tree(GOLDEN)
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], name
