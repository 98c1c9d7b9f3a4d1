"""Golden PD text of seeded braid closures.

`braid_closure_pd` builds the `braids` benchmark inputs and the braided
diagrams of many tests.  One sha256 over `pd_text` of 2,000 seeded
closures (2 to 6 strands, up to 30 letters, every strand position used)
pins its arc labels byte for byte.  The digest was computed when the
closure still fused its arcs with a union-find of its own; the closure now
renames each final arc to the first label at its position, the root that
union-find kept.
"""

import hashlib
import random

from singdet.diagrams import braid_closure_pd, pd_text

DIGEST = "419229e79302e9fee9f35b5cc630b457136d2972dba04bfc1436e6a22d61f938"


def seeded_words(count: int):
    """(word, strands) pairs: each position appears once with a random sign,
    then random letters fill the word up to its drawn length, shuffled."""
    rng = random.Random(2024)
    for _ in range(count):
        strands = rng.randint(2, 6)
        length = rng.randint(strands - 1, 30)
        word = [k * rng.choice((1, -1)) for k in range(1, strands)]
        word += [rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(length - len(word))]
        rng.shuffle(word)
        yield word, strands


def test_braid_closure_pd_text_is_pinned():
    h = hashlib.sha256()
    for word, strands in seeded_words(2000):
        h.update(pd_text(braid_closure_pd(word, strands)).encode())
        h.update(b"\n")
    assert h.hexdigest() == DIGEST
