"""Golden matrices: the sha256 of the Seifert matrix A and of both Goeritz
matrices of every connected corpus diagram with at most 21 crossings.

The CLI golden test sees only the printed invariants, which many different
matrices share; these digests pin the matrices themselves, through Vogel
untangling and the checkerboard coloring.  A digest is the sha256 of
`repr(A)` for the Seifert matrix (a tuple of row tuples) and of
`repr((R.entries, mu))` for the Goeritz data of shade 0 and 1.
"""

import hashlib

from singdet.corpus import load_corpus
from singdet.diagrams import goeritz_from_diagram, seifert_matrix_from_diagram

MAX_CROSSINGS = 21

# corpus entry -> (Seifert A, Goeritz shade 0, Goeritz shade 1)
GOLDEN = {
    "3_1": (
        "c50c1953e25395a78839acf8cdf153e42d13bb0a2b3ad67d5daaf5d4db838e22",
        "9447e3b3f7ec5ae851f749665ca15d7674f47c0a9f3bf7f9a6ab440aa56ff015",
        "64188d893cb7459685228633ae938d7f5b5660a5e81c4ec770647a71b131cc30",
    ),
    "4_1": (
        "15fb0fedf74d6701c437025aa6f9cf57cf1503429696ace63950cfdf5e1a7ed9",
        "76df18a2b8ac6f179c483d7d64d1e1613ad635bf73184c9dd4e42a6b32c190f0",
        "c69ec00095c8dbab739893b861e0be0fa088c9c10f5c1fc7df2cc0f87e023e33",
    ),
    "5_2": (
        "11979fcc2aa55613efe1514d9c46faf699bbc08bfb3aff3533570cdbdd8f1f3a",
        "75dfa284c16e43cc1f17205ed15a1368e437aa7df92642f6ccdfc1c5107cdb07",
        "d92bcff2ed8eb959a2e8448d49bf46f0cc039bd70054de3ea3854f257e5ebc6e",
    ),
    "6_3": (
        "26cad48c3895d4d3a0684c0423246fb75cbd2586b56fc0c898aa0174e529ebb8",
        "8087b0b5eb3f47b667ddb50c80da3688f32e78ffcd16479cc295595038915217",
        "ea055a1af1490b861bbe8e20506d115b5d61abcd0d070b221b5decd1f960fb5c",
    ),
    "7_6": (
        "1169d3df7df0c014f251c8e49aa446e88ea336b161e13e853c39020954c42981",
        "3c16b1134ce986b0fba24e1f8f7f058d88d3926f0f27d2f3d7b82f5effc0b4b4",
        "6eccbfa5904f69f03d89a888215eb35a6db0364252ce4d8b1f282abccf6dee2e",
    ),
    "8_10": (
        "b52ce6e8cd110f04b09445206f638de1759fa3060217363039aac227d2515c0c",
        "ff1284f341ea92f69fcff4b1d7a6d830075583b697b66bc08a4a293aa3326b03",
        "f547968480dc1e3fe8370e399fd8a7eb4b0bd9719e92f4a44c225775e4d97dd0",
    ),
    "9_14": (
        "cb2acf92e22071b43cc4f18a2b13b454d7167c61e36d4bf1bbb7f98809042255",
        "012367100f0037c5ead1838da51743de597f83a8829e3b9a85b293d40ef1c333",
        "6ba81450b2f622e2c0a2efb5f6a8a8e326508606d50bc7a0c57b498635a0f796",
    ),
    "bw2_p1p1p1p1p1p1p1": (
        "2b7822674810d212c43bcf6d8043cf8e8d9a7cc1c6eaf8aab01d0a17b06e8dcc",
        "b19736a486997927b288953f6e25d540599f75f0b6440ffab5fbb27156236825",
        "312899281af240d626d7376598d01bfef8eea249b15ead8e8ec8141f256b2c04",
    ),
    "bw3_m1p1m1p2m1p2m2p2": (
        "df0c5f532c5049414ba17395373f988c0ef35a2dde8a241b185b37fc54b3b1a3",
        "94e8b6bae1d06607e5070b0eab8b17d1533d2eefc6dc842838c3e34f147fbd20",
        "7aa4422dd1dd015f441eababc2d9c9d0e0ea5bac48fa20e31d2efe6f3f2a3871",
    ),
    "bw3_m1p2m1m1m1p2": (
        "077d9b7ace9383a2600879b0efba82504e3ad39d5bd3dc909a6a9d569ffde7c9",
        "3d922946384b5c364ded3b09ad813816e03f3a09b82d7d9dacc1f38da3231172",
        "82bbde36a62063cc8d0aa3de45809a637ae2cbbf8ac64431a02fa091962aead4",
    ),
    "bw3_p2m1m2m2m2m1": (
        "9eb1fc475cd28b4645b27ba2958b9cbc86a7eb2dd3156af61ffa790fcef08ef9",
        "390d5f3c8636741b314794411ea5fc62a3100826bcd5699806763f2691ca91e6",
        "0ed31f250e86d6fd091c1db4ef5a30cce015b13127c6792484419a6eec4bb600",
    ),
    "bw3_p2p1p1m1p2p2p2p1": (
        "48aa5c6846d909a2a46d6e3cfd9ba57e7230033ebee5e79e3d50dc43a3f3a5e5",
        "d41ddd0769a29163e4a7f0c98956052cf2f861fe52785a3e7b39f753c8671b4d",
        "9f11891daa5820ef79315235ed7bc69b8536d3743e66f6c57187fdcc93b2f45c",
    ),
    "bw3_p2p2p2p2p1p1p2m1": (
        "a0709356fa2ef4c64de1d295fda760b185207e4c8262c63e6fd4b0caaea32807",
        "b1f55177be247a690e3b29b8d1703a58f6f05536e1df651f80ae4303a3f1ec50",
        "f4ef7a11ab1256f97aff7950fd230b8f042ee4a8976f1ffdb6ad7d559e2bc6d5",
    ),
    "bw4_m1p1p1m2m3p3m2p3m2": (
        "def8a098083db3e36c5d11252cb33eec611eb8824e9d643ba75d0222c92db94c",
        "cd239bc9da83f1cf3982f1b69b25965533ee97ff24e3c3b289111216cb60f90c",
        "f631e2e6896e2042473d9df337c72aacb413cae568e26e785b65a3a798321394",
    ),
    "bw4_p1m1m2p3p1m2p3p3m2": (
        "f0f05db1b055bc01fcaec76ce39299a54bf774939c4cd105d19409dd7b52524b",
        "18838d84972100546852c69ed239ac156646c8ddc4b414b49f50ac90250dbfd9",
        "8d9448161665c0e2ec84c3d2e91b7adab3b3f144c4afb7dcf895be801df453d1",
    ),
    "bw4_p1p3p2m3p2p2m3m2m2": (
        "17ed95783ffa952cdc822cac5b54835c52f9ecde3a78d4ae40c2e70c886c2574",
        "290ecee5737d7a6a627e72f9aa6341141a2acb83f9964273524b51949a429795",
        "858e0e1e5e327d3136033caaccec210d03e6fcdce18e976889ccaee95254987b",
    ),
    "bw4_p3p2m3p1m2p1p2p2p3": (
        "401fe877b4ce43c013ed080e3b1daf583e9234a31515e9092692436e55a85034",
        "63259eac60284fd615f69016089fa51fc53cec0fc3b1048e1553367d18e33f27",
        "442e7021f80618b26b1e97a9ea72b1fce55da87679b2b727aace782d5d144a0b",
    ),
    "granny": (
        "0e144a5ed05a7cecda93f3825b66c72eb16ce1fb3efb45d00c0274b7337abc63",
        "b21c3e5e0d712413ed46cb3da7e78c027a6480226325bed76051e44a247e06e1",
        "d311344aa245acf25c8309a55baad9fe80ae686f6b1c5a26582d703b49245d48",
    ),
    "hopf_minus": (
        "8349bb5d2d44e8d655364829a2ce742165d10f6cb3966ecc05e35fb83ab9f28c",
        "3a6d13c446141145f00edff79c3101c6868a58c861ebce4d064edd9ebec03740",
        "b09d576721149aca4f99c35513577a4a0afd080edfd4b6ce8583c9bd1bdd00ad",
    ),
    "hopf_plus": (
        "0ab6d750fcc797cb62de1aeff7a4c4a7e63b3b26644eb7e6d3c62fb76bd2f546",
        "3a6d13c446141145f00edff79c3101c6868a58c861ebce4d064edd9ebec03740",
        "b09d576721149aca4f99c35513577a4a0afd080edfd4b6ce8583c9bd1bdd00ad",
    ),
    "p3_3_3": (
        "72086fc840482e4b82b582da8dc41bac1e9a9f41577d78eca97f5b24f046fb26",
        "7c35f97de3e7cf4367b017e2d225b7690cc7a63411bbba9dd981c3f3a6fb0eab",
        "ab8dff5f6b135964b7b18888dffb36bbf95cf4b54c906bf4cf7d7cb8f48c4901",
    ),
    "p3m33": (
        "70f391429b9ec96214104cc8b741ee89930c90e7d7350c8d8ed9a6944cf949ee",
        "24e70ee08cc0a16d5ce28d2ee7aae8f4d41c3e72aa18432461f6f4b5f932c661",
        "5c343980e1f8d7d7b30d5a1c29044f8b12e67456c5b93bead5a1121f682fd589",
    ),
    "p777m": (
        "bcd313ce2c73e00e45f22deb9f6f022160c333094668c84548bf81662136011f",
        "035bf024f84051d89c9f01e4ef9fc53e4ffa751233ad31b2e09c16121ea4cf4e",
        "57ce18fee46eff40131fa85a9105bcc0acde7bce373024e9a74094c5453f8c02",
    ),
    "square": (
        "725a92012e65709d4e51073d6f5c088b9292eb0c088c85ad71ecc34efb5de292",
        "04ba857aec5f40aec0e4aaeb189a2a69ad21891c6e57282f980f79329480d81c",
        "2e866755172e7e7e1d890e5772599ad0b16112a1f9a555e9c6bdee940d197663",
    ),
    "t2_4": (
        "2e5da3dd626aba2aa290531147940ed5572d3d30ebf8457547a82f36846ee943",
        "f81f8fa140fd340c25e71f8f2bab35544632160d59c4ded823cacdf17657dec6",
        "67329fa8b5fc47037cf89b5f95314391cfd372782e1e53644e7a90833455b064",
    ),
    "t2_4_rev": (
        "7643734717f9155ba73f4a8a399f76313d2ce539ffdf43b43dc7355bbbd5b378",
        "f81f8fa140fd340c25e71f8f2bab35544632160d59c4ded823cacdf17657dec6",
        "67329fa8b5fc47037cf89b5f95314391cfd372782e1e53644e7a90833455b064",
    ),
    "t2_5": (
        "d66eea2cbc6352c6f3d7031f6612cd86b3f9864e2a70de100770273153dc700d",
        "2622e0e8089840ac976b5d4db6dc8d785335884f4bfc3a53f2a854d80023a5b5",
        "ff26a941d510b847c1dd6f06828a8d8d6dc51ba91d8e28684e6af00bfc991599",
    ),
    "t2_6": (
        "6dc86e838ad41b7e466ee29a1f3332018d060e6f75a100d6560573cb34bc2965",
        "10d12154a68070ab9adfff86c729f7ab0f019de71f39aca05a4bb8e395fd4cb7",
        "b83dc407a28ee42ae984addaa4c5cf9e51e122598a2f41320e0b67dd31f099e6",
    ),
    "t2_7": (
        "2b7822674810d212c43bcf6d8043cf8e8d9a7cc1c6eaf8aab01d0a17b06e8dcc",
        "b19736a486997927b288953f6e25d540599f75f0b6440ffab5fbb27156236825",
        "312899281af240d626d7376598d01bfef8eea249b15ead8e8ec8141f256b2c04",
    ),
    "t2_9": (
        "58b1c7c2a88cde71fd12fb4f8ab7fe2da005118e3c4575b84f881fbe3671f6b5",
        "83664798e792aba5dd71f52a8ef3d9610c1c9f58826f2b8482e39851717608a7",
        "e3210163afdce8b689b1027a54e3d22ed3ae582be3421ce99a9cdfc5bdbe92f8",
    ),
    "t3_4": (
        "f354946479eda6410e6c681776c19eebe97fe4fa38c90db5328f47fd733e0964",
        "e567a64022c7879614539f458b39ac88cc7e5c7ee1696f0bb64dbbf9026c3f23",
        "1c7ff8b2fa79be9a2e973e5bbee211feed9e8e13245992e47918434d051ded3b",
    ),
}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def test_diagram_matrices_are_golden_on_the_corpus():
    diagrams = {
        name: e.diagram
        for name, e in load_corpus().items()
        if e.diagram is not None and e.diagram.n and e.diagram.is_connected()
        and e.diagram.n <= MAX_CROSSINGS
    }
    assert sorted(diagrams) == sorted(GOLDEN)
    changed = []
    for name, d in sorted(diagrams.items()):
        got = (_sha(seifert_matrix_from_diagram(d).A),) + tuple(
            _sha((S.entries, S.mu)) for S in (goeritz_from_diagram(d, s) for s in (0, 1)))
        if got != GOLDEN[name]:
            changed.append(name)
    assert changed == []
