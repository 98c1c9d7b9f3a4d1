"""Golden Seifert matrices of PD-only pretzels beyond the corpus cap.

`test_matrix_golden.py` pins the matrices of the corpus diagrams up to 21
crossings.  These digests pin the Vogel-untangled Seifert matrix A of
larger diagrams, where untangling makes up to 240 moves: PD-only
P(5,17,5) (corpus `p5_17_5` without its Seifert block, 27 crossings),
P(11,-9,13) (33 crossings) and 20 seeded pretzels of 13 to 26 crossings
(3 or 4 columns, |a_i| <= 11, 15 of them with every column odd).  A digest is the sha256 of `repr(A)`.
They were computed with the untangling that rebuilt and re-validated the
whole diagram after every move, before the moves were derived from the
previous diagram, so they pin that deriving changes no matrix.
"""

import hashlib

from singdet.corpus import load_corpus
from singdet.diagrams import parse_pd, pd_text, pretzel_pd, seifert_matrix_from_diagram

P5_17_5 = "8c30ea736f0f396d233b458449282a1a844871690a0434d87bd5b8e4f9e86c85"

# twists -> digest of A
PRETZELS = {
    (11, -9, 13): "b7872b723897ed19da7bb640feb03e3e48b47a542c494a528f28539d59ff95ca",  # 33 crossings
    (9, -5, -1): "978b621480c7960fb76de34ec10d49f5dc36f19e077fb25440711325c4ceebed",  # 15 crossings
    (-3, -9, 1): "b79fd47ad7753880d2acf8066597777760b78e24f1b902942b1423bfdf591488",  # 13 crossings
    (3, -11, 1, 11): "eeb50a5633b926437245e39628f713f260200631a858cc7b40eab2476c4c8b5f",  # 26 crossings
    (8, 2, 1, -2): "6d5454784452c4a70331a48ddbd954787ef8c8e386b43b554f1f44f91db2a0b8",  # 13 crossings
    (4, 2, 11, 4): "0626635bb1a954852bb597d62a7d316f469bfab1c04a0867bb05c49eb443fc99",  # 21 crossings
    (-9, 6, 3, -8): "74a67dcba8adc55a2b238fc112431a87dd56413a613bf7e33305eb1b309dee50",  # 26 crossings
    (5, -9, 3): "c34b6d9606476e2f9a3d4108bead7f6ca779a2e0c537f3651d582fa987858544",  # 17 crossings
    (-7, -1, -5, 3): "9c0c9621cc8e9ddafdde3873bad14f7eb69c8719742db2b6feb72b15ee90f085",  # 16 crossings
    (-9, -5, -5): "ec9be52522bc9385b2af23ce0af33bc6ed0555b7e64fba59838572098988cea5",  # 19 crossings
    (7, 1, 5, -1): "27489dca8416e65fb541d83bdf700b80105022085839b11cd63ec480d320e745",  # 14 crossings
    (-9, 5, 9): "1fc0a37c285a9a6f14f816bb00bc11ac5b3df203a5a6e552de0b891068b4270a",  # 23 crossings
    (11, -7, 4): "2b963f6a66a58c0b25b2ad6001a9c4676f131d6fdff365793b74d594f4475296",  # 22 crossings
    (-7, -11, 3): "caa697e2ea47311ba8380babbca030bfb97c2efb8eba994dd44fa406178604c9",  # 21 crossings
    (-3, 5, 11): "76a820ffcacc74e3d2904388e96a7a612498bb5b9580f87cb23510cd13b83bd1",  # 19 crossings
    (9, 3, 6, -3): "9143a4b2a82f15c6f19d0043e1dc4c6d7b86f35db9890e4f296b74adc1fdbde5",  # 21 crossings
    (-9, -1, -9): "d380849fde7a2e6274eb9ff3322b7fec9a98d1fef60b8d668c58ee1b80a40b83",  # 19 crossings
    (-11, -7, 5): "800aacd5db1a23ca9b2d03b5369e951086c4a179de38bf11abd2599660f3aa97",  # 23 crossings
    (9, 1, 5): "c0a0b63295752d068388e8487f6114118eb6f0fe865424fa67ff0678daf4fb8c",  # 15 crossings
    (9, -1, -11): "30c392e07b3d5bb2d805badf9f978e133e5f87f18dda78863b38b31f25991af1",  # 21 crossings
    (-5, 9, -1, 9): "9e36959fe0b1b455c53c803ce155aebbbbcae536f74f7c96635369e1bddb5dfc",  # 24 crossings
}


def digest(d):
    return hashlib.sha256(repr(seifert_matrix_from_diagram(d).A).encode()).hexdigest()


def test_pd_only_p5_17_5_matrix_is_golden():
    assert digest(parse_pd(pd_text(load_corpus()["p5_17_5"].diagram))) == P5_17_5


def test_pretzel_matrices_beyond_the_corpus_cap_are_golden():
    sizes = []
    for twists, want in PRETZELS.items():
        d = pretzel_pd(*twists)
        assert digest(d) == want, twists
        sizes.append(d.n)
    assert min(sizes) == 13 and max(sizes) == 33
