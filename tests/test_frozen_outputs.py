"""Frozen CLI stdout: byte-for-byte what these requests printed when recorded.

Each case pins the line count, the first line verbatim and the SHA-256 of
the whole stdout, so a change in canonical roots, in the sign-counter order
of the halves or in the JSON encoding of either field level shows up here.
"""

import hashlib
import json

import pytest

from jachalf.cli import main

CURVES = {
    "g1": {"p": 7, "modulus": [1], "roots": [[0], [1], [6]]},
    "g2": {"p": 11, "modulus": [1], "roots": [[0], [1], [2], [3], [4]]},
    "g3": {"p": 13, "modulus": [1], "roots": [[0], [1], [2], [3], [4], [5], [6]]},
    "g3f11": {"p": 11, "modulus": [1], "roots": [[0], [1], [2], [3], [4], [5], [6]]},
    # F_25 = F_5[t]/(t^2 + 3); the point has a outside F_5
    "f25": {"p": 5, "modulus": [3, 0, 1], "roots": [[4, 1], [0, 3], [1, 4], [1, 3], [0, 4]]},
    # F_49 = F_7[t]/(t^2 + t + 3): the halves lie over the tower F_{7^4}
    "g3f49": {
        "p": 7, "modulus": [3, 1, 1],
        "roots": [[0], [1], [2], [0, 1], [3, 1], [5, 2], [6, 4]],
    },
    # y^2 = x^5 - x over F_49 = F_7[t]/(t^2 + 1): roots 0, 1, -1, t, -t
    "f49": {"p": 7, "modulus": [1, 0, 1], "roots": [[0], [1], [6], [0, 1], [0, 6]]},
    "p61": {"p": 2**61 - 1, "modulus": [1], "roots": [[0], [1], [2]]},
    "p61g2": {"p": 2**61 - 1, "modulus": [1], "roots": [[i] for i in range(5)]},
    "p61g3": {"p": 2**61 - 1, "modulus": [1], "roots": [[i] for i in range(7)]},
}

# divisor files, named in argv by their key
DIVISORS = {
    # (0, 0) + (6, 4) on g2: a Weierstrass point in the support, gcd(U, 2V) = x
    "g2-weierstrass": {"U": [[0], [5], [1]], "V": [[0], [8]]},
}

# (curve, argv after --curve, line count, first line, sha256 of stdout)
CASES = [
    (
        "g1", ["halve", "--point", "4,2"], 4,
        '{"U":[[[4],[1]],[1]],"V":[[[2],[5]]],"rational":false,"tuple_index":0}',
        "43e87b2f23546f4932eb865860dbfbb423d72367ade7bc5ce1fe7f5e4dee5c95",
    ),
    (
        "g2", ["halve", "--point", "6,4"], 16,
        '{"U":[[[0],[6]],[4],[1]],"V":[[1],[[4],[4]]],"rational":false,"tuple_index":0}',
        "063031c534109c826773204c2ac819b76f2d0d6ab21354d95d49ca20a5855b3a",
    ),
    (
        "g3", ["halve", "--point", "7,3"], 64,
        '{"U":[[[4],[1]],[[7],[9]],[[12],[8]],[1]],'
        '"V":[[[10],[11]],[[4],[5]],[[11],[2]]],"rational":false,"tuple_index":0}',
        "7fbb99e95a851ea3e382cb55c31de6cf008bab6049c886a46d876834550b594c",
    ),
    (  # a Weierstrass point: the zero root is pinned, 2g signs are free
        "g2", ["halve", "--point", "2,0"], 16,
        '{"U":[[[6],[7]],[[7],[2]],[1]],"V":[[[8],[3]],[[3],[10]]],'
        '"rational":false,"tuple_index":0}',
        "579053c8492e6d76872a0674e9cfe5262b4cb9e1c9b7180104a9d81255cb2b1a",
    ),
    (
        "f25", ["halve", "--point", "[[3,1],[2,0]]"], 16,
        '{"U":[[1,1],[4,3],[1,0]],"V":[[0,4],[1,0]],"rational":false,"tuple_index":0}',
        "78d9d77e60573d72445c8ec5a2295418904e71c54a133ec6f6246c34280af22b",
    ),
    (
        "g3f49", ["halve", "--point", "[[2,1],[3,4]]"], 64,
        '{"U":[[[1,5],[1,2]],[[1,3],[2,4]],[[2,3],[4,4]],[1,0]],'
        '"V":[[[3,2],[4,0]],[[5,3],[2,1]],[[1,3],[1,1]]],"rational":false,"tuple_index":0}',
        "1a82c4c105759a76e6c84dfc94b32381a566ac6b7f3a929bb97ebcb7faef6053",
    ),
    (
        "p61",
        ["group", "mul", "--point", "7,605782482086620655", "--scalar", "1234567890123456789"],
        1,
        '{"U":[[681149616708006179],[1]],"V":[[1751885244835811179]]}',
        "5060721dc57e839b4df42b25ee8e34c30dcf88c83756a976a0207e4076deca78",
    ),
    (
        "p61g2",
        ["group", "mul", "--point", "123456789012345,668066065956409900",
         "--scalar", "1234567890123456789"],
        1,
        '{"U":[[1415121059303189692],[634624688100870064],[1]],'
        '"V":[[548465228802425318],[156744967025491620]]}',
        "6718d2d561e8bd23dcb77d360bb691e2c713caedf7e6a34cef9bc3c450c45fd7",
    ),
    (
        "p61g3",
        ["group", "mul", "--point", "123456789012346,446052953922367585",
         "--scalar", "1234567890123456789"],
        1,
        '{"U":[[1832039619753321901],[1658268447341175693],[695178491786758376],[1]],'
        '"V":[[737214531971929565],[488423407165637983],[195430758343620981]]}',
        "d3e92ea4b4f9f53ef015e8f6173b2ba529daf11fc2e80aefcfa6b86caf1f64a9",
    ),
    (  # g = 2 over F_11: multiples of a class with a Weierstrass point in its support
        "g2", ["group", "mul", "--scalar", "1234567890123456789", "--divisor", "g2-weierstrass"],
        1,
        '{"U":[[9],[7],[1]],"V":[[4],[2]]}',
        "9280c09afbd3b6e1b1b94b4bbbd46f7d6d81133b1eda042fda4d9c0a4cdf620c",
    ),
    (  # g = 1 over F_7, by the chord and tangent rules
        "g1", ["group", "mul", "--point", "5,1", "--scalar", "9876543210987654323"],
        1,
        '{"U":[[2],[1]],"V":[[6]]}',
        "ad498bb6147670266f9cc891a0128fb4269f4afe9685d98a1706320f914dc696",
    ),
    (
        "g2", ["group", "double", "--divisor", "g2-weierstrass"], 1,
        '{"U":[[3],[10],[1]],"V":[[2],[4]]}',
        "3fe55a1c165fc081e319b5fe9214a47dfeb94a68c8d1c81d9a045e08529d8dea",
    ),
    (
        "p61g2",
        ["group", "mul", "--scalar", "-1987654321987654321",
         "--point", "123456789012345,668066065956409900"],
        1,
        '{"U":[[261326287292509373],[599984326591080377],[1]],'
        '"V":[[2208909941314142557],[1763332630145176845]]}',
        "67f74c3960f32876b8600acb5f0399cdd53317ae11f254a62c01aa0967db489d",
    ),
    (
        "g2", ["torsion-scan", "--max-order", "4"], 1,
        '{"points_scanned":133,"violations":[]}',
        "ff338e1de46d0382031c7d1eadd0984692d965ec7438d13b5a444d7b92c4dfa3",
    ),
    (  # g = 3: one add per point, 3P = 2P + P
        "g3f11", ["torsion-scan", "--max-order", "6"], 1,
        '{"points_scanned":123,"violations":[]}',
        "8107bddb0034b0ecf8f9289da276453eb05ab8ae4278cfa014b60dc254c223e6",
    ),
    (  # the whole scan runs over the tower F_{7^4}
        "f49", ["torsion-scan", "--max-order", "4"], 1,
        '{"points_scanned":2205,"violations":[]}',
        "a1151d32eb47b5ac696c37af96412868e074b38ca0bd907372db97a614e805ad",
    ),
]


@pytest.mark.parametrize(
    "name,argv,n_lines,first,digest", CASES, ids=[f"{c[0]}-{c[1][0]}-{c[1][2]}" for c in CASES]
)
def test_stdout_is_frozen(capsys, tmp_path, name, argv, n_lines, first, digest):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CURVES[name]))
    for key in set(argv) & set(DIVISORS):
        (tmp_path / f"{key}.json").write_text(json.dumps(DIVISORS[key]))
    argv = [str(tmp_path / f"{a}.json") if a in DIVISORS else a for a in argv]
    code = main([argv[0], "--curve", str(path)] + argv[1:])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == n_lines
    assert lines[0] == first
    assert hashlib.sha256(out.encode()).hexdigest() == digest
