import io

import pytest

from reqsel.dependency_graph import load_influence_matrix, load_vdg
from reqsel.preferences import load_preference_matrix
from reqsel.valuation import load_requirements

# each loader's input as data rows, with a view of its result that compares by value
LOADERS = {
    "preferences": (
        ["req_id,u1,u2", "a,1,0", "b,0,1", "c,1,1"],
        lambda m: (m.requirement_ids, m.user_ids, m.cells.tolist()),
        load_preference_matrix,
    ),
    "requirements": (
        ["id,name,cost,value,probability", "r1,login,1.5,10,0.8", "r2,search,2,4,0.5"],
        lambda reqs: reqs,
        load_requirements,
    ),
    "vdg": (
        ["from,to,strength,quality", "a,b,0.5,+", "b,c,0.25,-"],
        lambda loaded: (loaded[0].n, loaded[0].edges, loaded[1]),
        load_vdg,
    ),
    "influence": (
        ["id,a,b", "a,0.0,-0.25", "b,0.5,0.0"],
        lambda loaded: (loaded[0].influence.tolist(), loaded[1]),
        load_influence_matrix,
    ),
}

NOT_DATA = ["", "   ", "  # indented note", "# reqsel 0.1.0 identify config=0123456789ab"]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_blank_and_comment_rows_are_not_data(name):
    rows, view, load = LOADERS[name]
    plain = view(load(io.StringIO("\n".join(rows) + "\n")))
    padded = [NOT_DATA[-1]]
    for row in rows:
        padded += [row, *NOT_DATA]
    assert view(load(io.StringIO("\n".join(padded) + "\n"))) == plain
