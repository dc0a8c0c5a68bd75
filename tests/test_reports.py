"""Deterministic CSV emission."""

import numpy as np

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
