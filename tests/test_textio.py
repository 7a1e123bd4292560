"""The block format itself, pinned by literal files.

Round-trip tests elsewhere compare the code with itself; these files were
written by an earlier release, so a drift in the format on both the read
and the write side fails here.
"""

import numpy as np
import pytest

from rss.core import Rng
from rss.energy import load_landscape, planted_landscape, save_landscape
from rss.sampler import load_snapshots, save_snapshots
from rss.softplm import load_model, save_model

LANDSCAPE = """\
# planted-landscape v1
# rss-version=0.1.0 seed=0
seed 0
L 3
K 2
contacts 3
modes 1
depth 1
[fields]
-0.024408911823448388 -0.018141966095243663
-0.010543338545638485 0.013721017879137761
0.034750445648089254 -0.004284488764801142
[contact 0 1]
0.0034966705717679901 -0.017855645772037031
-0.65461349816968384 0.043466668171004572
[contact 0 2]
0.031569365437641404 -0.02345784119356642
-0.70884738236820166 -0.020775815417911739
[contact 1 2]
-0.66528913402175849 -0.077501025821294478
-0.0072930554644181911 -0.041530364908435508
[modes]
1 0 0
"""

MODEL = """\
# masked-sequence-model v1
L 1
K 2
d 2
[embed]
0.10000000000000001 -2.5
0.33333333333333331 9.9999999999999995e-21
[mask]
3 -0
[positional]
1e+22 0.66666666666666663
[mix]
0.5 0.25
-1 7
[readout]
1.0000000000000001e-05 123456789
0.20000000000000001 -0.29999999999999999
[bias]
0.69999999999999996 -1.1000000000000001
"""

SNAPSHOTS = """\
# logit-snapshots v1
# rss-version=0.1.0 seed=7
L 2
K 2
[snapshot 50]
0.10000000000000001 -0.20000000000000001
1.5 2
[snapshot 100]
0.14285714285714285 -1.0000000000000001e-09
0 5.0000000000000003e+300
"""


def assert_bits(actual, expected):
    expected = np.array(expected, dtype=np.float64)
    assert actual.dtype == np.float64 and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def test_landscape_file(tmp_path):
    path = tmp_path / "landscape.txt"
    path.write_bytes(LANDSCAPE.encode())
    land = load_landscape(path)
    assert_bits(land.energy.fields, [
        [-0.024408911823448388, -0.018141966095243663],
        [-0.010543338545638485, 0.013721017879137761],
        [0.034750445648089254, -0.004284488764801142],
    ])
    assert_bits(land.energy.couplings, [
        [[0.00349667057176799, -0.01785564577203703],
         [-0.6546134981696838, 0.04346666817100457]],
        [[0.031569365437641404, -0.02345784119356642],
         [-0.7088473823682017, -0.02077581541791174]],
        [[-0.6652891340217585, -0.07750102582129448],
         [-0.007293055464418191, -0.04153036490843551]],
    ])
    assert land.energy.idx_i.tolist() == [0, 0, 1]
    assert land.energy.idx_j.tolist() == [1, 2, 2]
    assert land.modes.dtype == np.int64 and land.modes.tolist() == [[1, 0, 0]]
    assert land.seed == 0 and land.depth == 1.0
    again = tmp_path / "again.txt"
    save_landscape(land, again, comment="rss-version=0.1.0 seed=0")
    assert again.read_bytes() == path.read_bytes()


def test_model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(MODEL.encode())
    model = load_model(path)
    assert_bits(model.embed, [[0.1, -2.5], [1 / 3, 1e-20]])
    assert_bits(model.mask_embed, [3.0, -0.0])
    assert_bits(model.positional, [[1e22, 2 / 3]])
    assert_bits(model.mix, [[0.5, 0.25], [-1.0, 7.0]])
    assert_bits(model.readout, [[1e-5, 123456789.0], [0.2, -0.3]])
    assert_bits(model.bias, [0.7, -1.1])
    again = tmp_path / "again.txt"
    save_model(model, again)
    assert again.read_bytes() == path.read_bytes()


def test_snapshot_file(tmp_path):
    path = tmp_path / "snapshots.txt"
    path.write_bytes(SNAPSHOTS.encode())
    snapshots = load_snapshots(path)
    assert [step for step, _ in snapshots] == [50, 100]
    assert_bits(snapshots[0][1], [[0.1, -0.2], [1.5, 2.0]])
    assert_bits(snapshots[1][1], [[1 / 7, -1e-9], [0.0, 5e300]])
    again = tmp_path / "again.txt"
    save_snapshots(again, snapshots, (2, 2), comment="rss-version=0.1.0 seed=7")
    assert again.read_bytes() == path.read_bytes()


def test_ragged_block_names_file_block_and_lengths(tmp_path):
    path = tmp_path / "landscape.txt"
    save_landscape(planted_landscape(4, 3, 2, 1.0, Rng(0)), path)
    lines = path.read_text().splitlines()
    first_mode = lines.index("[modes]") + 1
    lines[first_mode] = lines[first_mode].rsplit(" ", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_landscape(path)
    message = str(info.value)
    assert str(path) in message and "[modes]" in message
    assert "row 1 has 3 values, row 2 has 4" in message


def test_unclosed_tag_names_file_and_line(tmp_path):
    # it used to fail as "unexpected block [field]", a block the file does not hold
    path = tmp_path / "landscape.txt"
    save_landscape(planted_landscape(4, 3, 2, 1.0, Rng(0)), path)
    lines = path.read_text().splitlines()
    number = lines.index("[fields]") + 1
    lines[number - 1] = "[fields"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        load_landscape(path)
    assert str(info.value) == (f"{path}: line {number} opens a block tag without closing it: "
                               f"'[fields'")


@pytest.mark.parametrize("old, new, message", [
    # these used to fail with "not enough values to unpack (expected 2, got 1)"
    # and "could not convert string to float: 'abc'", naming no file
    ("depth 1\n", "depth\n", "header line 8 has no value: 'depth'"),
    ("[modes]\n1 0 0\n", "[modes]\n1 abc 0\n",
     "line 23 of block [modes] is not a row of numbers: '1 abc 0'"),
], ids=["header-without-value", "non-numeric-entry"])
def test_malformed_line_names_file_and_line(tmp_path, old, new, message):
    path = tmp_path / "landscape.txt"
    path.write_text(LANDSCAPE.replace(old, new))
    with pytest.raises(ValueError) as info:
        load_landscape(path)
    assert str(info.value) == f"{path}: {message}"


# each of these used to load, or to fail with an IndexError or a message
# naming no file
@pytest.mark.parametrize("text, load, old, new, message", [
    (MODEL, load_model, "[mask]\n3 -0\n", "[mask]\n", "block [mask] is 0 x 0, not 1 x d = 1 x 2"),
    (MODEL, load_model, "L 1\n", "L 2\n",
     "block [positional] is 1 x 2, not L x d = 2 x 2"),
    (MODEL, load_model, "[bias]\n0.69999999999999996 -1.1000000000000001\n",
     "[bias]\n0.69999999999999996 -1.1000000000000001\n0.5 0.5\n",
     "block [bias] is 2 x 2, not 1 x K = 1 x 2"),
    (MODEL, load_model, "[mix]\n0.5 0.25\n-1 7\n", "[mix]\n0.5 0.25\n",
     "block [mix] is 1 x 2, not d x d = 2 x 2"),
    (MODEL, load_model, "d 2\n", "", "header line 'd' is missing or not an integer"),
    (MODEL, load_model, "d 2\n", "d 2\nd 3\n", "header line 5 repeats 'd'"),
    (MODEL, load_model, "[bias]\n", "[scale]\n", "unexpected block [scale]"),
    (SNAPSHOTS, load_snapshots, "[snapshot 50]\n", "[snapshot]\n",
     "block [snapshot] must name its step as one integer"),
    (SNAPSHOTS, load_snapshots, "[snapshot 50]\n", "[snapshot x]\n",
     "block [snapshot x] must name its step as one integer"),
    (SNAPSHOTS, load_snapshots, "L 2\n", "L 5\n",
     "block [snapshot 50] is 2 x 2, not L x K = 5 x 2"),
], ids=["empty-mask", "header-L", "two-row-bias", "short-mix", "no-width",
        "repeated-width", "unknown-block", "snapshot-without-step", "snapshot-word-step",
        "snapshot-header-L"])
def test_block_against_header_names_file(tmp_path, text, load, old, new, message):
    path = tmp_path / "file.txt"
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value) == f"{path}: {message}"
