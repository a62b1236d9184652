"""Module boundaries of the package source."""

from pathlib import Path

from elliplrt import likelihood

SRC = Path(__file__).resolve().parent.parent / "src" / "elliplrt"

# Cholesky factorizations and triangular solves run in _linalg.py alone
LINALG_ONLY = ("np.linalg.cholesky", "dtrtrs", "solve_triangular", "scipy.linalg")


def test_factorizations_and_triangular_solves_stay_in_linalg():
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_linalg.py":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            hits += [f"{path.name}:{lineno}: {name}" for name in LINALG_ONLY if name in line]
    assert not hits, "\n".join(hits)
    assert "np.linalg.cholesky" in (SRC / "_linalg.py").read_text()


def test_the_dsigma_support_and_layout_live_in_likelihood():
    text = (SRC / "model.py").read_text()
    assert [name for name in ("sigma_support", "dsigma_bk", "_bk_layout", "_nonzero_params") if name in text] == []
    assert likelihood.__all__ == ["ScoreInfo", "loglik", "score_info"]
