"""Byte-for-byte stdout of the cell-complex commands on a fixed seeded corpus.

`hypersurface`, `prevariety`, `affine-prevariety` and `dim` run through
`cli.main`, and each stdout is pinned by its SHA-256 digest.  The corpus was
drawn once from a seeded generator and is written out literally: polynomials
with two or three terms tied at an integer point (poly and Laurent mode),
4-variable 5-term quadratic forms, the 10-term 2-variable cubic, and
prevarieties and dimension reports of 2-3 generators.  One hypersurface was
added by hand, `0 + x + y + x*y`, whose cells share the text of their EQ
rows, so that their order is decided by the full key, and one dimension
report, `x^2 + y^3 + 0`, whose witness steps along a ray: its hull
direction (3, 2) has last entry 2, not 1.  Every cell, interior
point and witness in these outputs comes out of the exact polyhedral kernel,
so any change in how that kernel represents or orders its rows that moved a
chosen point would show here.
"""

import hashlib
from pathlib import Path

import pytest

from oracles.cli import run_cli


CORPUS = [
    (["hypersurface", "--mode", "poly", "--nvars", "2", "--poly", "4*y^2 + -1 + 0*x + 4*x^2"],
     "30feb37db7d4cf5015f35f9022d49ba9c316fd4a605204cd2f0b1f5fa80d9e80"),
    (["hypersurface", "--mode", "poly", "--nvars", "2", "--poly", "2 + -1*x*y + -4*y + 4*y^2"],
     "70d5d7f5df18866374c40ca179d35e773238bb109f43f9be8c38a1e743da386d"),
    (["hypersurface", "--mode", "poly", "--nvars", "3", "--poly", "5 + -1*z + 4*x + 1*y"],
     "acb0c382f8a2fd105b525ebaff50cb6595950dd3d3c3ca1fc07d23159777a1be"),
    (["hypersurface", "--mode", "poly", "--nvars", "3", "--poly", "-4*x + 4*y + 0 + 4*z"],
     "45fee0492a8628ae79592900eba176f38a8a33e20ad193a214db9a457db86378"),
    (["hypersurface", "--mode", "poly", "--nvars", "3", "--poly", "3*y + 4*z + 2*x*y + -1/3*y*z + 5*x*z"],
     "5b327cee630426212a4dda6b6cea4daee3b0e024cb3cbc35fc0831cb443d89c5"),
    (["hypersurface", "--mode", "poly", "--nvars", "3", "--poly", "-1*x + 2*x*z + -1*y^2 + 3 + 1*x^2"],
     "4bbf09e9503d4dcdfea0ebf550699316e052fc4c48867474b24acfe56135d2e3"),
    (["hypersurface", "--mode", "laurent", "--nvars", "2", "--poly", "-2*x + 2*y^2 + 5*x^-1 + -4*x^-2*y^2"],
     "71e109d2d651b7a7a40025d9c208b765fe3544e939f9c610840b1455eda3dff7"),
    (["hypersurface", "--mode", "laurent", "--nvars", "2", "--poly", "7/3*x^-1*y + 1/3*x*y^2 + -1*x^2*y + -1"],
     "a4a9eee6c8bdae12e4a1894372fe2d2b03e218c905756dc897a2abb7e99bbec4"),
    (["hypersurface", "--mode", "laurent", "--nvars", "3", "--poly", "-1*x*z + 1/3*x*y*z^-1 + 1/3*x^-1*y^-1 + 1/3*z"],
     "5278d42c368e775776e01c0740ebdc95b80c28d1eabe527ca258df42dec9612f"),
    (["hypersurface", "--mode", "laurent", "--nvars", "3", "--poly", "5*x^-1*y*z + 4*y*z + -4*x^-1*y^-1*z^-1 + -2*x*y*z"],
     "e098097079f3d5ffa4ea8515e8fb315a97c6fcfdaede2ebdff2ceaccf6df4131"),
    (["hypersurface", "--mode", "laurent", "--nvars", "3", "--poly", "1*x^2*z + 0*x*y^-2*z^-1 + -2*y^-2*z^-2 + -2*y^-2*z^-1 + 3*x*y^-2*z^2"],
     "f42c09eb7148f64a08ce7519f311ddc8cf8e3d197d76c3f691b140ce020b382e"),
    (["hypersurface", "--mode", "laurent", "--nvars", "3", "--poly", "7*x^-2*z^2 + -3/2*x^-1*y^2*z^-2 + -1*x^2*y^2*z + 2*x*y^-2*z^-2 + 3*x^2*y^2*z^-1"],
     "e9c3ece58483f2c63e1a041c1b77fe0be5601e35663ba99bd5537698978fa4a9"),
    (["hypersurface", "--nvars", "4", "--poly", "-4*x^2 + -2*z^2 + -1*y*z + -4*x*y + 0*y^2"],
     "01e254c6d484c92c51e314e4e736441c91a6dd8c6244533444d307e361d8b5e5"),
    (["hypersurface", "--nvars", "4", "--poly", "-1/3*x*y + -3*x*z + 2*z*w + -1*y^2 + -2*x^2"],
     "c3ddabab819695e2e604c5469366c334d39ab360ccfe9321bed16991f5916f12"),
    (["hypersurface", "--nvars", "4", "--poly", "-4*x*z + 4/3*w^2 + 1*x^2 + 2*y^2 + -1*x*w"],
     "cc1b086fa4a7497f8dd3d02624a27e4e2f3d40dbdda70d8e679437f54078ec22"),
    (["hypersurface", "--nvars", "4", "--poly", "1*w^2 + -1*x*z + 0*y*z + 3*y*w + 0*x^2"],
     "aa127cb85348720357539c463210ce52ece9700f08f11e73d21123933af41839"),
    (["hypersurface", "--nvars", "2", "--poly", "1 + 3*y + -1*y^2 + 3*y^3 + -1*x + -2*x*y + -2*x*y^2 + 0*x^2 + 3*x^2*y + 2*x^3"],
     "f361a40ce0b9cf04a6d5400bb10ba971596e3c236254f5ea3f5aae5415a72714"),
    (["hypersurface", "--nvars", "2", "--poly", "1 + 3*y + -2*y^2 + 0*y^3 + 1*x + 2*x*y + -2*x*y^2 + 1*x^2 + 0*x^2*y + -2*x^3"],
     "add5006fc27de7aac779c8eb0ee9b7761850587f25b7c9b2e239b47c6c8b3e4a"),
    (["prevariety", "--mode", "poly", "--nvars", "2", "--poly", "2 + 1*x + -2/3*x*y", "--poly", "0*x + -1/3*y^2 + 2/3*x*y"],
     "b17a8680bb67c04ed8af80465edeeb162483ea307119d891def66a26d21e410e"),
    (["prevariety", "--mode", "laurent", "--nvars", "2", "--poly", "4*x^-1*y + 5 + -1*x*y", "--poly", "4*x^-1 + 6*x*y + 1/2*x^-1*y"],
     "539c80de90e2efaa47bfe3cd0a0958e5d9b23d9287c44674ca81688976a48828"),
    (["prevariety", "--mode", "poly", "--nvars", "2", "--poly", "-1 + -1*x^2 + 0*x*y", "--poly", "0*y + 4*x*y + 5*x", "--poly", "1/2*x*y + 3/2*x + -1/3*x^2"],
     "be8301ffb0744338c6c3e0044a2ff1822d323a282c1938c002a5b7f3911af692"),
    (["prevariety", "--mode", "laurent", "--nvars", "2", "--poly", "-1*x^-1*y^-1 + -1*x^-1*y + 1*x*y", "--poly", "1*x*y + 4*x^-1 + -2/3*y", "--poly", "-1*x^-1 + 3/2*x^-1*y^-1 + 3/2*x"],
     "2ccb5fb62cf6cfe882094274ed02ece5f29ab890c340e4b708ec0beacf03c574"),
    (["prevariety", "--mode", "poly", "--nvars", "3", "--poly", "-1/3 + 4/3*y^2 + 0*z + 10/3*x^2", "--poly", "0*y^2 + -4 + 0*z + -2*y*z"],
     "e2cac9ad6e0a73bf3f209497d8e50827740f03a8c2783b766967fe532c2873d1"),
    (["prevariety", "--mode", "laurent", "--nvars", "3", "--poly", "-1/3*z + 3*x*z^-1 + 3*y^-1*z^-1 + -1*x*y^-1", "--poly", "-4*y^-1 + 5*y + -1*x*y^-1*z + 4*z"],
     "ff7918a85b8e0f762036c848ffc8fdacd19aeb1ced6c4391f4d6ddfbe0a4de60"),
    (["prevariety", "--mode", "poly", "--nvars", "3", "--poly", "4*x*z + 4*y + 2/3*x^2", "--poly", "-1*y^2 + -4*z^2 + 1*x^2", "--poly", "1/3*y^2 + 2 + 1*x"],
     "8938df3902b784072519d30d7c195b059f8cf58c0b5561200a421dcd8abf0b1b"),
    (["prevariety", "--mode", "laurent", "--nvars", "3", "--poly", "1*x*y*z^-1 + 3/2*y*z^-1 + 2*x^-1*y^-1", "--poly", "0*x^-1*z^-1 + 2/3*x^-1*y^-1*z^-1 + 1*y^-1*z^-1", "--poly", "2*x^-1 + 3*x^-1*z^-1 + 0*z^-1"],
     "5e835ad7777e96f479aee933262a4bd57bc27e7b93cc9434a14e33e9e53cc705"),
    (["prevariety", "--mode", "poly", "--nvars", "3", "--poly", "1*y*z + -1*x^2 + 0", "--poly", "4*x^2 + -1*y + 4*x"],
     "66f465e4e01d23a6d480c155b1fc825628e63db7122fccc5425fd74ae6b02e09"),
    (["prevariety", "--mode", "laurent", "--nvars", "3", "--poly", "1/3*x^-1*y^-1*z + 1*y*z^-1 + 4/3*z", "--poly", "-2*x^-1*y^-1*z + 1*x^-1*z + 3*x^-1*z^-1"],
     "c12c47b9534050832a4246544447496f218379405a2001c95fd9fb9655596e2d"),
    (["prevariety", "--mode", "poly", "--nvars", "3", "--poly", "-4*y + 0*x*z + 5*x^2 + 1*y^2", "--poly", "-1*z^2 + 4*y^2 + 4*x^2 + 4/3*y", "--poly", "3*z + -1*x^2 + -2*y*z + 2*x*y"],
     "783014a6a300b2544a34bd4fe63171da5de0204709b264b65b2cd33f4e442bd9"),
    (["prevariety", "--mode", "laurent", "--nvars", "3", "--poly", "-4*x^-1 + 0*x^-1*y + -1*y*z^-1 + -2*x*y^-1", "--poly", "-1*y^-1 + 1*y*z^-1 + 1*x*z + 1*y", "--poly", "4*y^-1*z^-1 + 4*y + 4/3*z^-1 + 0*x^-1"],
     "88593569337c452a823035ac820f29f41d818b9008e2174eedeb2fcc2bcef8dd"),
    (["affine-prevariety", "--nvars", "2", "--poly", "-4/3*y + 5/3*x + 2/3", "--poly", "-3*y + -3*x*y + -3*x^2"],
     "b791029bcac087d4aabf72ff74b8a1159d7d070eeb4b46841200718a17182d63"),
    (["affine-prevariety", "--nvars", "3", "--poly", "-3*x + 2*x*y + 1*x*z", "--poly", "2/3*z^2 + 0*y*z + 0*x*z"],
     "bc615e2226cb4c91b29eeedc64f15090a798253c7b0b29761341ca4236749cd7"),
    (["affine-prevariety", "--nvars", "3", "--poly", "2*y + 1*y*z + -1", "--poly", "2 + 3*z + 4*z^2", "--poly", "1*y*z + 1/3*x + 1/3"],
     "eec262bb53625b70b23e7e69516b9166334f62957bbda5b5f15bdc538aee0330"),
    (["affine-prevariety", "--nvars", "2", "--poly", "4*x + 1/2*y + 3 + -4/3*x*y", "--poly", "3*x + -2*y^2 + -3 + 2*y"],
     "0ff17328e869f4df156ff1d880a0a52de40ef8a5f89c115d094022fc3a46d79a"),
    (["dim", "--mode", "poly", "--nvars", "2", "--poly", "-2*x^2 + 2*y^2 + 2*x + 1"],
     "de838b94503f53b6ea834c80979bd54cb6340989f5656095f018a4870b6940ba"),
    (["dim", "--mode", "laurent", "--nvars", "2", "--poly", "0*x*y^-1 + -1 + -3*x*y + -1*x^-1"],
     "2c8111bc918c506b8033e697edd42968028f6cd971b18ca23551fe23b97ff81e"),
    (["dim", "--mode", "poly", "--nvars", "3", "--poly", "4*z^2 + 4/3*x + 5*y*z + 4/3*y + 3*x*z"],
     "1f594346ee696d6153ff3f0f00531219246db2cae8ea5340a030dfd6f59a6162"),
    (["dim", "--mode", "laurent", "--nvars", "3", "--poly", "-3*x*y^-1*z^-1 + 0*y*z + -2*x*y*z + 3*x^-1*y*z + 1*x^-1*y*z^-1"],
     "e18117fdb65b1d2a8262c4ec2a73e7f070eec23b1ae616418925e3eebd09deb8"),
    (["dim", "--mode", "poly", "--nvars", "3", "--poly", "0 + 2*z^2 + -1*x^2", "--poly", "6*y^2 + 4*x + -2/3*z^2"],
     "11b218a371f17ca964f5354cdb23327975b59307229ad0d397053449151c757f"),
    (["dim", "--mode", "laurent", "--nvars", "3", "--poly", "3*x^-1*y^-1*z^-1 + 4*y + 2*x*z^-1", "--poly", "0*x*y + 1*x*z + 2*x^-1*z"],
     "af563a01687b564c62a20a0ee5cbeef9ace1e69ee7b94a9ad438b93ae90c340b"),
    (["dim", "--mode", "poly", "--nvars", "3", "--poly", "2/3*y*z + 2/3*z + -1*x*z", "--poly", "3*x + 4/3*z + 2*y", "--poly", "3*x*y + -2/3*z^2 + 4"],
     "6e1d9d78dca4689350459680309566038b634ff724468c348e476ca3cb5740ca"),
    (["dim", "--mode", "laurent", "--nvars", "3", "--poly", "3/2*x^-1*z^-1 + 0*x + 7/2*x^-1*y^-1", "--poly", "1*x^-1*z^-1 + 3*x^-1*z + -1*x*y*z^-1", "--poly", "5*x^-1*y^-1 + 4*z + -3*x*y^-1*z^-1"],
     "2bb732d19c415d37988e10939c495ce1cc71bc5f41158c71abde28f44e2d05bd"),
    (["dim", "--mode", "poly", "--nvars", "4", "--poly", "-2/3*x^2 + 0*z^2 + 1 + 4*y^2 + 3*x*z"],
     "954a2865b6750e44ed9ac56f529d4aea0f1e480ed37b14b31fb9dcd97cf21062"),
    (["dim", "--mode", "laurent", "--nvars", "4", "--poly", "-2*x*y*z*w^-1 + 6*x*y^-1*z^-1*w^-1 + 2*x*y^-1*z*w + 2/3*x*y*z*w + 1/3*y^-1*w"],
     "521b68b2d4633df1baddc8f880379cef21457a43b32d7689abfe5bda2c78e0c0"),
    (["dim", "--mode", "poly", "--nvars", "2", "--poly", "-1 + 0*y^2 + -1*x^2", "--poly", "2*y + 1*x^2 + 3*x*y"],
     "452415242b6de0e8ca01e2a61e9c93407748c6894c5c334898f54d310b5efb0c"),
    (["dim", "--mode", "laurent", "--nvars", "2", "--poly", "4*x^-1 + -3/2*y^-1 + 2*x", "--poly", "1*x^-1*y + -2*x^-1 + 0"],
     "028c3d9fc1ef3816d30fedd9b6160f96148fc7d1933cd502bc8f6c22b792e469"),
    # two pairs of cells share the text of their EQ row (x = 0, and y = 0)
    (["hypersurface", "--nvars", "2", "--poly", "0 + x + y + x*y"],
     "8aa1bd34089830c27063b980b719e6b80296ba5029d47fc02be638a4dc68a6dc"),
    # the witness steps along the ray 2x = 3y, whose hull direction (3, 2) has
    # free entry 2: one unit of y, not one unit of the direction
    (["dim", "--poly", "x^2 + y^3 + 0"],
     "d377513d6867be6888d62c77cd82a48f042acc34e8c9df13f059f3f4bf89ea8d"),
]


@pytest.mark.parametrize("argv, digest", CORPUS, ids=[f"{i}-{argv[0]}" for i, (argv, _) in enumerate(CORPUS)])
def test_cells_stdout_pinned(capsys, argv, digest):
    code, out, err = run_cli(list(argv), capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# files under tests/pins/ that CI diffs against the installed console script's stdout
PINS = {
    "hypersurface_cubic_n2_10_terms.json": 16,
    "hypersurface_quadric_n4_5_terms.json": 12,
    "affine_prevariety_n3_two_gens.json": 31,
    "dim_poly_n3_quadric.json": 36,
    "hypersurface_0+x+y+xy_n2.json": 46,
    "prevariety_n3_three_gens.json": 28,
    "dim_x2+y3+0.json": 47,
}


@pytest.mark.parametrize("name, index", PINS.items())
def test_console_script_pins_are_corpus_outputs(name, index):
    """Each pin holds the stdout whose digest the corpus pins, so the two cannot drift apart."""
    pin = Path(__file__).parent / "pins" / name
    assert name.startswith(CORPUS[index][0][0].replace("-", "_") + "_")
    assert hashlib.sha256(pin.read_bytes()).hexdigest() == CORPUS[index][1]
