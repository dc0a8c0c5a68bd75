"""Deterministic CSV emission."""

import numpy as np

from gdms import reports
from gdms.reports import write_csv


def test_write_csv_cell_format(tmp_path):
    path = tmp_path / "sub" / "table.csv"
    write_csv(
        path,
        ["i", "x", "edge", "flag", "np_x", "np_i", "np_list", "word"],
        [
            [1, 20],
            [0.1, 1e-20],
            [float("-inf"), float("nan")],
            [True, False],
            np.array([0.5, 1 / 3]),
            np.array([3, -4], dtype=np.int64),
            [np.float64(-np.inf), np.float64(2.5)],
            ["g1", "g1 g2~"],
        ],
    )
    assert path.read_text() == (
        "i,x,edge,flag,np_x,np_i,np_list,word\n"
        "1,0.1,-inf,True,0.5,3,-inf,g1\n"
        "20,1e-20,nan,False,0.3333333333333333,-4,2.5,g1 g2~\n"
    )


def test_write_csv_no_rows(tmp_path):
    write_csv(tmp_path / "empty.csv", ["R", "rho_R"], [[], np.array([])])
    assert (tmp_path / "empty.csv").read_text() == "R,rho_R\n"


class SliceLog:
    """A string column that records every slice taken of it."""

    def __init__(self, items):
        self.items = items
        self.slices = []

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            self.slices.append((i.start, i.stop))
        return self.items[i]


def test_write_csv_in_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(reports, "BLOCK_ROWS", 7)
    x = np.random.default_rng(3).normal(size=30)
    words = SliceLog([f"g{i}" for i in range(30)])
    write_csv(tmp_path / "t.csv", ["x", "n", "word"], [x, range(31), words])
    lines = (tmp_path / "t.csv").read_text().split("\n")
    assert lines[0] == "x,n,word"
    assert lines[1:] == [f"{v!r},{i},g{i}" for i, v in enumerate(x.tolist())] + [""]
    # one slice per block, none longer than a block, rows stop at 30
    assert words.slices == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 30)]
