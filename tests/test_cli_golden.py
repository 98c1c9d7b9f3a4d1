"""Golden CLI outputs: the sha256 of `invariants` and `obstruct` on every
bundled corpus file, and on a PD-only copy of each one with a diagram, in
both formats.

`GOLDEN` pins stdout of `--format machine` on the corpus files.  `RUNS`
pins the other 210 runs: `--format text` on the corpus files, and both
formats on the PD-only copies, which hold the entry's `name:` and its
`pd_text` alone, so the matrix is read off the diagram (Vogel untangling
where it is not braided).  Each digest is of the JSON list [exit status,
stdout, stderr].

A change that means to keep outputs byte-identical must keep these digests.
A change that alters an output on purpose regenerates them: `GOLDEN` by
hashing each run's stdout (UTF-8), `RUNS` by `_run_digest`.
"""

import contextlib
import hashlib
import io
import json
import os

from singdet.cli import main
from singdet.corpus import parse_entry
from singdet.diagrams import pd_text

from test_cli_input import CORPUS_DIR


# corpus file stem -> (invariants digest, obstruct digest)
GOLDEN = {
    "3_1": ("2d69b254d153f6ceea58c0e39b2739aa6035cee9b89a442d42a2f62de1bfcc3f", "a602193943d21b6adab7061bb40329fb586b91411fe56be8f33ed04cc050ac1c"),
    "4_1": ("117bc6b88f3cfaf803b22fb690ab8f2e2fadd89b8f63796eb372740905b6327c", "13e138839670acfc2ccb68eafbdc7fb3eae445de9694792dfba59c36234cc29b"),
    "5_2": ("9dbc5abaad23d5148ce0ed8a66566094f4cd17ce3a4b2c2183e0fb95dfff1608", "c4dd70eb2953b8624e9ddec03425a3dc883192d2bdd78d54d2584ec0d4ab8dfc"),
    "6_3": ("a25a1e945e2247ba5bf07881c1bfbef98441bc9ad2e5d3fadd31f8e8dd767765", "b0e50c67549551ed66ae6f7ff76a42474410d4a760b4c686dc636cf94549ee94"),
    "7_6": ("ee979e9146a0697dee67abc341b2e5f3875b9760d3033790c20f36c10648295b", "9b8a89c55d163a5a2befaf22b2f5d8b072f49eb2a5b95e74a3a23a7fbf555d58"),
    "8_10": ("48635e43e6702df62a48d2081f09ace8019bbe7be1077017e748b69b6129ecc0", "94a95d2c1497ca629150ca52f8084dc28e26a4615308bf753a2c33f2bd2d556f"),
    "9_14": ("637326d7fca4f63e5b20dc7f7c254394c00654e4f10b9db682872f43ac878637", "97cbb4a48afd785585a56e49281e43e29dca54855e9efbb1a184aa3a7184376b"),
    "bw2_p1p1p1p1p1p1p1": ("83ade7a44ba8fe3a89ff8aaf1c57e5a895eebb564c816e3f66ebe6e135d446d5", "5e677e1c150c661bc4ed667575844a344faebde6d4d9751d170f2ac291e029c0"),
    "bw3_m1p1m1p2m1p2m2p2": ("e627d6e8bc500029ade4bee09db440431f46d98fa9f4f865a684d9c23e873455", "9d2219a230ae0a49047f9316c19ab979870524f2b61c0f35ba55ebc531462621"),
    "bw3_m1p2m1m1m1p2": ("c22aeea8e2da2ea81168224b72d7d8ae3923393a33d1219f68f4f6b76a20f094", "972ffa958a27dda1ca58b9bef3c8686cf40845a7064d0ae49df84ee830c9d3f1"),
    "bw3_p2m1m2m2m2m1": ("018672779a41e57f2da0eb82e63ad585532113cabe0ba69551efde9ee328274d", "ffab451913bd50ccf157912128b0b8c5afe46af0a6ca96a1bcb3945177479e1c"),
    "bw3_p2p1p1m1p2p2p2p1": ("c83c1389681f57d4412a2bf43edf3a863bacec3c77842358344dc2b3dd72fb93", "d6e183c6f3a65ddd4657b822ededdbf1081c26d45dfe28810884c35c890433d8"),
    "bw3_p2p2p2p2p1p1p2m1": ("d8280db4ad46926ece752d2788c9c678065f57184b7744178f8b3386313fd818", "f5b94ce6973e12399a5236be89f2b976b5ec3260e995849803007f61fc5f7a89"),
    "bw4_m1p1p1m2m3p3m2p3m2": ("cee58d5b3d738fb57dc6b299ad629ba17ac5f64b3e51aa39064bbe8472d8de1a", "c643c6a848ef36d3d7b40088c93ea855e6f60cca7047316a866f59e13da90611"),
    "bw4_p1m1m2p3p1m2p3p3m2": ("10835a3636fa53672dae823de6a2cf33b7ae13fc6e03be633a12f5269b96238d", "5d5f5a24526ee4d90f3c8d62ae1a6a36c16bd05b4c7611eabdee58984430a2dc"),
    "bw4_p1p3p2m3p2p2m3m2m2": ("6329ad33a3ea8c62dd7f145797fb883ce5fa391f05b55d9821f288cc8c5d5e19", "9c367b3af6821494f2baef46dc9422f4c68ef0b4aee49915ac9ce5f339cd6034"),
    "bw4_p3p2m3p1m2p1p2p2p3": ("19071c93e17f97df30e58a3ff32e4dc54775bdcb5105451b75837f0aa16e1f31", "2ba0064a73551bb551f618324c2ac30b75bde265d5fec1fa45904cc95b4dc587"),
    "cx195_1": ("3a176bd8555ff1aacc0f790a7d1249311fa06f50bb8d753d5799136960145217", "3653163fbfee59b7f7957a16226648542b8f8c0a2ef47a3dae85b3615e2af2de"),
    "cx195_2": ("826c1368b140efc160a9c6c36acbb7f0cda02232df936821cd2709a947b1b449", "b00b395aae04dfe615e56038a2c152335c29dd9889235d8b873f6f1e41d561de"),
    "cx195_3": ("3a22a0212efaed2a3c2700f6d79c9c61df1f30659fef57731ea98d56b1267bf2", "3c1888d6387275a1b46cd77956f2019ddb4427bb55c7a10ee48750ff7c7e96c7"),
    "cx195_4": ("553d8073ec1845af27090be1b7e1bd63a0c004c63e93f510e4315a61ece8923a", "92b562ee1b0e5a8ffe8cec0fdb80afdead8371cd75bc224ff4b7c33bf24c1315"),
    "example_d17": ("5c26c7b1d4408d479be7f6cee5b5bf0ed7919c6483e31f7a2e5f3149503a6f06", "03b11bb8b779c68380c2aced311e0861bb62e7ccdcf905282be923f7dc95a4c4"),
    "granny": ("34b9fc930a2b5456b7ed99fec13d8dd45572fa83243efbccad7a3270af676e0d", "bbd733858ebd727683e39efc396ef10b4f03cf95333661284933d880b321ec04"),
    "hopf_minus": ("eb842ee5135f6f3d80772b793ae47bfbdfd16e6f9d423aac4a8eec5ec2bf10dc", "c15a7c2a07ac41f1023c67c68912b4a72d6e887ffea62da911d8db3a07d8fad7"),
    "hopf_plus": ("1ab064690adf43e55640697613a7027c747d127f5df320b5ab4ec3c976d7ca2d", "0750b2785856900f572d75222239135a9cd6a55c2ca8bda44f54fd0a4ce1fadb"),
    "m12n553": ("861094fd642b323aa39c469c3edeed1e351eec85cebad97649c4a985b8825a4e", "c6922b0ae9e4d1c936ccc721c7d271cb818b41ea7eb56b773e5e0a9529e8f302"),
    "p3_3_3": ("bb3deb1ec7669170dba7510a3bd1cfb380083b3589651eb5bd40a53c3f4d0dfb", "8b0bdcf5e99429df3aa315d74d46e0781f80ed8f3bca6c9e76ae351a3fd22978"),
    "p3m33": ("f29f36a093c96805863da5332539fb08de2b22c5a89f6bb40774b4938121b123", "62e5ebb424f737d0d4cbe6314286dc8dc4f8b4fcf2933c7eb1d402ff7a7c0308"),
    "p5_17_5": ("ee2938d8929464ce83232be08268fce8fd8d9096034e61922ea64c9218557d11", "821e6340aa3815b5e5aa987010643f08aab9eaf9566cfd26b30457b3867fffc3"),
    "p777m": ("28b30b436c500bd4fb6d8259a286873f78c3e3a680331ad1f266a1aef9cf8cbe", "6adcf50e3f1aa25a0cc2bbb25d4c486a553f72b7376e374b1e85948948ffbaf2"),
    "square": ("85172b41525f6770f9fe4f3c85e8adb0d324bb188a1f3c7e7b1c1cf2297736a8", "dc0831815d0c92f5d28f20f3a9dd657434c594c019e81fcd3e92dd0ac57d8a81"),
    "t2_4": ("9c19175555d43403d123873165e77613abbeb08cafe24bb42130002ad403410b", "bfa016c694e0d62f27856c88dbe66fd5cb5c7491c0bb4873df6bec129b85dc7c"),
    "t2_4_rev": ("aa086c32d936834369cf4e45161a80eddb356203a14acd8f789384695fa54fd3", "24897f6056371692776e0a1cb209ff9f82fa44e878fdc4f69a5ab09a22689cf0"),
    "t2_5": ("4272d2943ddb63ef9c75576eafaf219cb8653472f7aa191f692bbac4f4e7bd11", "64c281f3cac996a806afb7adb88be1ea57d3ec0e54a6b9c449699863f5faecf9"),
    "t2_6": ("5286a4b1fa51b8508e290e392965a7b2a46a168516da695eabdf08809c875712", "ac55170bf5c9239a5c961d243210772e170c2a7e374504894219e06099b7d330"),
    "t2_7": ("ada8a580cf50060d46178b58851a28975c3535aa48b034890763bd0e7299444a", "1828527b7e297b9c9b73c97ba9c052ff04fe4e8ce74d8b0895133d2eb52c7fe3"),
    "t2_9": ("eb02194bb21b01ca7bc35594e15d8678e867a8d28f08ccd0c68668a3767011e7", "0d42332ed91ac5c865e35938f3d292c76b5be982d9733fd7967ed2f2069af65b"),
    "t3_4": ("027aef19dc89c86b07d21b4a66ce3996313629ff90004df57bb4002c32d09958", "a6ccad52c90656c8fa50fd738ea6617d82f300f2a8bb5eb22a23d1a4d58e472b"),
    "unlink2": ("26b4e3b709cd5106ff573a7568555797142f5a3e71d167b05a1f15f5514bdaa9", "0594a908e318825c0656f14c3c4aec105ac5259656fb5748da044a365b7aa5be"),
}

# (corpus file stem, source, command, format) -> sha256 of [exit status, stdout, stderr]
RUNS = {
    ('3_1', 'corpus', 'invariants', 'text'): '205ee2ece1ada38f46cd44846f746110050a729aebe683e1508d8d90810d95b5',
    ('3_1', 'corpus', 'obstruct', 'text'): '8f0f65ca9fe98704a85d198b71d259bccb4f4fea9eeea9506a4f06649893f50e',
    ('3_1', 'pd', 'invariants', 'text'): '205ee2ece1ada38f46cd44846f746110050a729aebe683e1508d8d90810d95b5',
    ('3_1', 'pd', 'invariants', 'machine'): '231f1326cca095f2270fe6f8f136a1ce8c34a5a6ca920fd80c9a0afb02db6186',
    ('3_1', 'pd', 'obstruct', 'text'): '8f0f65ca9fe98704a85d198b71d259bccb4f4fea9eeea9506a4f06649893f50e',
    ('3_1', 'pd', 'obstruct', 'machine'): 'd4639d8f793248da0b667a7109fb9c7fe714ff1941d18febc845a21d25fb6148',
    ('4_1', 'corpus', 'invariants', 'text'): '3499ab3c39d2298fbceb07930fb337a8a539d325a26069057c29d9dbf92f1f8e',
    ('4_1', 'corpus', 'obstruct', 'text'): '904ffec827ae38aca92218306de8d42069954a9c00ba878acc401781480e9964',
    ('4_1', 'pd', 'invariants', 'text'): '3499ab3c39d2298fbceb07930fb337a8a539d325a26069057c29d9dbf92f1f8e',
    ('4_1', 'pd', 'invariants', 'machine'): 'ae209fdbf85bd2ac1a90f2106ad7012679b63df2a74df427af95c2bc7b471c76',
    ('4_1', 'pd', 'obstruct', 'text'): '904ffec827ae38aca92218306de8d42069954a9c00ba878acc401781480e9964',
    ('4_1', 'pd', 'obstruct', 'machine'): '5767ebe341ea88a2188a14f00bb7f1a1370483c16f7abd4fd33a264b3fa3ad56',
    ('5_2', 'corpus', 'invariants', 'text'): 'ffcdb8ee6ce25de37d0d3d10034a1ddbdc0029f1375eb1a4602ef6cd63efc07e',
    ('5_2', 'corpus', 'obstruct', 'text'): '06e7e8fb1d474df729c962fb131583e278a7280bbe261afa562f1434a7bc27ba',
    ('5_2', 'pd', 'invariants', 'text'): 'ffcdb8ee6ce25de37d0d3d10034a1ddbdc0029f1375eb1a4602ef6cd63efc07e',
    ('5_2', 'pd', 'invariants', 'machine'): '526051d48c71614e14989ebd780cc7fdb7eb9f3751e3493f5acb776762673d27',
    ('5_2', 'pd', 'obstruct', 'text'): '06e7e8fb1d474df729c962fb131583e278a7280bbe261afa562f1434a7bc27ba',
    ('5_2', 'pd', 'obstruct', 'machine'): '91242eaa5f9316d4fb20692452a4b35f45c45eb74c6bae7aad4ee3b5ae4e6231',
    ('6_3', 'corpus', 'invariants', 'text'): '0a97d55c4f267662aace5928b4bd36f5280a3201fa90b154c2336d2920eefea6',
    ('6_3', 'corpus', 'obstruct', 'text'): '574179d070dcc69d0992ffb575f6d1f850bf601870961571dccbb3a5dc176aa3',
    ('6_3', 'pd', 'invariants', 'text'): '0a97d55c4f267662aace5928b4bd36f5280a3201fa90b154c2336d2920eefea6',
    ('6_3', 'pd', 'invariants', 'machine'): 'd916bbe0f75059f957fae044f7be87ad7a845f8f5eeea5eebca3105199055a5d',
    ('6_3', 'pd', 'obstruct', 'text'): '574179d070dcc69d0992ffb575f6d1f850bf601870961571dccbb3a5dc176aa3',
    ('6_3', 'pd', 'obstruct', 'machine'): 'f8af75b7f381d7f8dbe49706ef7dc41c1b6e628025b21804556053a7e6659f4b',
    ('7_6', 'corpus', 'invariants', 'text'): 'c044059cf191bef606b9d3ec5291bcdad48cfa1f4dd3b5a4b843de204887daac',
    ('7_6', 'corpus', 'obstruct', 'text'): '61532fdd28a568923575e94d7e2345e92194ab4622c6f598bee6199e44ba1308',
    ('7_6', 'pd', 'invariants', 'text'): 'c044059cf191bef606b9d3ec5291bcdad48cfa1f4dd3b5a4b843de204887daac',
    ('7_6', 'pd', 'invariants', 'machine'): 'a80d55860b64ac794bfb1042c3513209ff2dabcc3c09dd6c427d17caec60140b',
    ('7_6', 'pd', 'obstruct', 'text'): '61532fdd28a568923575e94d7e2345e92194ab4622c6f598bee6199e44ba1308',
    ('7_6', 'pd', 'obstruct', 'machine'): '65a3c1ab2239a9e00ede05d2adc804480f3a046326afe527aef8431b0c55c086',
    ('8_10', 'corpus', 'invariants', 'text'): 'fe8eaca30ef292ba7840b59fd2f40f97d0f6404304b1ca64d1f2c54fc5bb7cc1',
    ('8_10', 'corpus', 'obstruct', 'text'): '3778c5f6ea9c6df9e2702e5277ab7e6918fb4ef3edd7a2970220a6dcfdd3cb30',
    ('8_10', 'pd', 'invariants', 'text'): 'fe8eaca30ef292ba7840b59fd2f40f97d0f6404304b1ca64d1f2c54fc5bb7cc1',
    ('8_10', 'pd', 'invariants', 'machine'): '48e5812a4655726efe6968ab6106545cd55493a8fcf6d7f1c553229943d93390',
    ('8_10', 'pd', 'obstruct', 'text'): '3778c5f6ea9c6df9e2702e5277ab7e6918fb4ef3edd7a2970220a6dcfdd3cb30',
    ('8_10', 'pd', 'obstruct', 'machine'): '54fde78f29cefb2cce9dabdae4da318a329134544f86cdcebc0cab3df40dad12',
    ('9_14', 'corpus', 'invariants', 'text'): 'fc9b69af866ed44b8512931fff68ba6858469532638b3fe5ee460c1bd1b76566',
    ('9_14', 'corpus', 'obstruct', 'text'): 'd8979c9a44081d1168caab2bb71f50b57168fa631c6d5ec212579f30210e7064',
    ('9_14', 'pd', 'invariants', 'text'): 'fc9b69af866ed44b8512931fff68ba6858469532638b3fe5ee460c1bd1b76566',
    ('9_14', 'pd', 'invariants', 'machine'): 'beeda4bf8856a35c38d84ac36cf5c1e10b0f90c4544beeaa476cfb35d7b0f51e',
    ('9_14', 'pd', 'obstruct', 'text'): 'd8979c9a44081d1168caab2bb71f50b57168fa631c6d5ec212579f30210e7064',
    ('9_14', 'pd', 'obstruct', 'machine'): '21849423bf02341430616a79ac49271756b5c4046e0a5564245f5844b1a95066',
    ('bw2_p1p1p1p1p1p1p1', 'corpus', 'invariants', 'text'): '93bc69e6688a696599d61b870962e7ce24cdd32f38624a246da6ffc44c691b6c',
    ('bw2_p1p1p1p1p1p1p1', 'corpus', 'obstruct', 'text'): '1589e674861b066f54ffff044b9e2d89547558967adb1de2acedcf03e7f28042',
    ('bw2_p1p1p1p1p1p1p1', 'pd', 'invariants', 'text'): '93bc69e6688a696599d61b870962e7ce24cdd32f38624a246da6ffc44c691b6c',
    ('bw2_p1p1p1p1p1p1p1', 'pd', 'invariants', 'machine'): '3d6da6687def1196867dcd4485afdb7819019fb98ff4784b37b6da90a675dc04',
    ('bw2_p1p1p1p1p1p1p1', 'pd', 'obstruct', 'text'): '1589e674861b066f54ffff044b9e2d89547558967adb1de2acedcf03e7f28042',
    ('bw2_p1p1p1p1p1p1p1', 'pd', 'obstruct', 'machine'): '15c12610f730e437f5b72ff5b9a451840cf9d7914300671f35129b48d611edae',
    ('bw3_m1p1m1p2m1p2m2p2', 'corpus', 'invariants', 'text'): 'e0348b8f9137a140820008c00d688e58cbc874ea31f8a66b26c0b1b5bbb15c9a',
    ('bw3_m1p1m1p2m1p2m2p2', 'corpus', 'obstruct', 'text'): '3ac94051d8038bac9c5789029676a1a68074a79b9b5566c402837c0f9703f692',
    ('bw3_m1p1m1p2m1p2m2p2', 'pd', 'invariants', 'text'): 'e0348b8f9137a140820008c00d688e58cbc874ea31f8a66b26c0b1b5bbb15c9a',
    ('bw3_m1p1m1p2m1p2m2p2', 'pd', 'invariants', 'machine'): '0f3a533c5e3e82a16efebfdc1c25c978937a8f3fe01908e600e2eb8c0455bb0b',
    ('bw3_m1p1m1p2m1p2m2p2', 'pd', 'obstruct', 'text'): '3ac94051d8038bac9c5789029676a1a68074a79b9b5566c402837c0f9703f692',
    ('bw3_m1p1m1p2m1p2m2p2', 'pd', 'obstruct', 'machine'): '1d89065aa079f1355615ae494ea9332065e9478750ade10368cf230686201037',
    ('bw3_m1p2m1m1m1p2', 'corpus', 'invariants', 'text'): 'a29ce9e80d8ab7e5ef2963c5839f52a20db6f6130d0e469764cace2d51761703',
    ('bw3_m1p2m1m1m1p2', 'corpus', 'obstruct', 'text'): '6922eefd07b32174ff7c6b65927e68258cd1c9b2181d2ad00121be12db4cf825',
    ('bw3_m1p2m1m1m1p2', 'pd', 'invariants', 'text'): 'a29ce9e80d8ab7e5ef2963c5839f52a20db6f6130d0e469764cace2d51761703',
    ('bw3_m1p2m1m1m1p2', 'pd', 'invariants', 'machine'): '07d188f47966cb28c5832eb48b865941ef19d28069b7ff6882153006e81b60f6',
    ('bw3_m1p2m1m1m1p2', 'pd', 'obstruct', 'text'): '6922eefd07b32174ff7c6b65927e68258cd1c9b2181d2ad00121be12db4cf825',
    ('bw3_m1p2m1m1m1p2', 'pd', 'obstruct', 'machine'): '693eeefccf56cf316d10bf0f7104a54e99b1919ac063c59a7b6015c928b18fb6',
    ('bw3_p2m1m2m2m2m1', 'corpus', 'invariants', 'text'): '00e4b40b83cbe74e3f72f9a725190feadce7bee7ce7903578816219780fc9441',
    ('bw3_p2m1m2m2m2m1', 'corpus', 'obstruct', 'text'): '74236a67a065d14a63c4dc1ee013c2d5686392c257661b524c451ff4b218aa98',
    ('bw3_p2m1m2m2m2m1', 'pd', 'invariants', 'text'): '00e4b40b83cbe74e3f72f9a725190feadce7bee7ce7903578816219780fc9441',
    ('bw3_p2m1m2m2m2m1', 'pd', 'invariants', 'machine'): '519ffd89decc2ac2b31dd92cb3ea5ca6f8b89bccadf5842a4bd841f2bd131a88',
    ('bw3_p2m1m2m2m2m1', 'pd', 'obstruct', 'text'): '74236a67a065d14a63c4dc1ee013c2d5686392c257661b524c451ff4b218aa98',
    ('bw3_p2m1m2m2m2m1', 'pd', 'obstruct', 'machine'): '4c778c4018b07a1a887659bea70e0d9c51e55b44431b96abc1d7bd09abda6cbe',
    ('bw3_p2p1p1m1p2p2p2p1', 'corpus', 'invariants', 'text'): '5e122a0a1909178f80f2e44745a729ad1dee717eef739d1da8f170d6f7a9d260',
    ('bw3_p2p1p1m1p2p2p2p1', 'corpus', 'obstruct', 'text'): '92fd3281d6977cc6a20e07c1cfc3df120ea391a0f11737d180e41efda14e61a8',
    ('bw3_p2p1p1m1p2p2p2p1', 'pd', 'invariants', 'text'): '5e122a0a1909178f80f2e44745a729ad1dee717eef739d1da8f170d6f7a9d260',
    ('bw3_p2p1p1m1p2p2p2p1', 'pd', 'invariants', 'machine'): '5169d07ccfafd293b1a21938ebd45aaeebb8370249a7e499fb1e8784ee01d129',
    ('bw3_p2p1p1m1p2p2p2p1', 'pd', 'obstruct', 'text'): '92fd3281d6977cc6a20e07c1cfc3df120ea391a0f11737d180e41efda14e61a8',
    ('bw3_p2p1p1m1p2p2p2p1', 'pd', 'obstruct', 'machine'): '816ee07cd57a0a869d8fe7a6fd46c1b48e816df241c16e83fb0ec39d8759b285',
    ('bw3_p2p2p2p2p1p1p2m1', 'corpus', 'invariants', 'text'): '3f94e0de7d30bd79ac703d29d06b88f226d208d646c29cebc6173b7ce9d570f8',
    ('bw3_p2p2p2p2p1p1p2m1', 'corpus', 'obstruct', 'text'): '7f181688bb0bb2d615c7f55bbd7976c1dd1234cca78e18cc245e76ef2fbd4879',
    ('bw3_p2p2p2p2p1p1p2m1', 'pd', 'invariants', 'text'): '3f94e0de7d30bd79ac703d29d06b88f226d208d646c29cebc6173b7ce9d570f8',
    ('bw3_p2p2p2p2p1p1p2m1', 'pd', 'invariants', 'machine'): '6dd24f9e7d5e0bd7ea29f5737925ce8617a5c0ee13d9ecc865bb058fe8523e43',
    ('bw3_p2p2p2p2p1p1p2m1', 'pd', 'obstruct', 'text'): '7f181688bb0bb2d615c7f55bbd7976c1dd1234cca78e18cc245e76ef2fbd4879',
    ('bw3_p2p2p2p2p1p1p2m1', 'pd', 'obstruct', 'machine'): '38504ecb5a8429fa3b012cceb19c4041cea4cf43622243421460fc3367b42428',
    ('bw4_m1p1p1m2m3p3m2p3m2', 'corpus', 'invariants', 'text'): 'd0f0e3e1adcb4b668f9d940a639aec7d936c1db31378d5ca77b8b90018c549b7',
    ('bw4_m1p1p1m2m3p3m2p3m2', 'corpus', 'obstruct', 'text'): 'e217f5c68e7441adab03d4a31ec995d730d8134b4bd5a3c2e24ad3c0c4f98ec0',
    ('bw4_m1p1p1m2m3p3m2p3m2', 'pd', 'invariants', 'text'): 'd0f0e3e1adcb4b668f9d940a639aec7d936c1db31378d5ca77b8b90018c549b7',
    ('bw4_m1p1p1m2m3p3m2p3m2', 'pd', 'invariants', 'machine'): 'd917bf183c71bf0663c4cbf51642026736ebbba87fe3c356283d3e65edea8562',
    ('bw4_m1p1p1m2m3p3m2p3m2', 'pd', 'obstruct', 'text'): 'e217f5c68e7441adab03d4a31ec995d730d8134b4bd5a3c2e24ad3c0c4f98ec0',
    ('bw4_m1p1p1m2m3p3m2p3m2', 'pd', 'obstruct', 'machine'): 'f615c80a46c17be22513d406ceeb1e629f3f130b201f81f639e595ba94287f92',
    ('bw4_p1m1m2p3p1m2p3p3m2', 'corpus', 'invariants', 'text'): '6d0823148986d84c4b2a56e994d94f37a2b9b0f1c2d02580bbab889f3162a7cd',
    ('bw4_p1m1m2p3p1m2p3p3m2', 'corpus', 'obstruct', 'text'): 'e050c08d9984db49787c1ec2f13fcc52155ef90970e95f757471b0ea64bc0ffc',
    ('bw4_p1m1m2p3p1m2p3p3m2', 'pd', 'invariants', 'text'): '6d0823148986d84c4b2a56e994d94f37a2b9b0f1c2d02580bbab889f3162a7cd',
    ('bw4_p1m1m2p3p1m2p3p3m2', 'pd', 'invariants', 'machine'): '6a0243b6c61d0675a1f97de147643011d47b846ece248d09903e90c40b90e76d',
    ('bw4_p1m1m2p3p1m2p3p3m2', 'pd', 'obstruct', 'text'): 'e050c08d9984db49787c1ec2f13fcc52155ef90970e95f757471b0ea64bc0ffc',
    ('bw4_p1m1m2p3p1m2p3p3m2', 'pd', 'obstruct', 'machine'): 'd3738d309c8b89d53316f922649a3f4927c80d5242710a19237a5b4aa26ca963',
    ('bw4_p1p3p2m3p2p2m3m2m2', 'corpus', 'invariants', 'text'): '468b791e8be889dfad685fbb026d7225a4dfafd5e4bdb572b817e50394ef73ff',
    ('bw4_p1p3p2m3p2p2m3m2m2', 'corpus', 'obstruct', 'text'): '152be50c79658f27bf61e982b6bede8522fd31ed8daa993557bd9b53b97c69a1',
    ('bw4_p1p3p2m3p2p2m3m2m2', 'pd', 'invariants', 'text'): '468b791e8be889dfad685fbb026d7225a4dfafd5e4bdb572b817e50394ef73ff',
    ('bw4_p1p3p2m3p2p2m3m2m2', 'pd', 'invariants', 'machine'): 'ac817f8ce9ab801d801c45473e44ed185aaab97046e21fe457e9002fc899e199',
    ('bw4_p1p3p2m3p2p2m3m2m2', 'pd', 'obstruct', 'text'): '152be50c79658f27bf61e982b6bede8522fd31ed8daa993557bd9b53b97c69a1',
    ('bw4_p1p3p2m3p2p2m3m2m2', 'pd', 'obstruct', 'machine'): '659c0f421ccc6f7990247c83a7d3ea2dc60da10f8274263d3a9e4690ae2ca17b',
    ('bw4_p3p2m3p1m2p1p2p2p3', 'corpus', 'invariants', 'text'): '12916b8b9d02a118c352bb78f93a7e358585c75bc304ebdffa627c428e53c0aa',
    ('bw4_p3p2m3p1m2p1p2p2p3', 'corpus', 'obstruct', 'text'): 'd890d626fb9d265c403f96704b4f3b2da1cca0da45d8fbec7a52236122d53d57',
    ('bw4_p3p2m3p1m2p1p2p2p3', 'pd', 'invariants', 'text'): '12916b8b9d02a118c352bb78f93a7e358585c75bc304ebdffa627c428e53c0aa',
    ('bw4_p3p2m3p1m2p1p2p2p3', 'pd', 'invariants', 'machine'): 'f211f3d520b741e88effbe7a14c1651a417c70d2eb7f43ba008e8083d4ab8010',
    ('bw4_p3p2m3p1m2p1p2p2p3', 'pd', 'obstruct', 'text'): 'd890d626fb9d265c403f96704b4f3b2da1cca0da45d8fbec7a52236122d53d57',
    ('bw4_p3p2m3p1m2p1p2p2p3', 'pd', 'obstruct', 'machine'): '371e808a17d7641f356c97d8c8ce2a40b20c28c21d5c2141d8dbd6ffb8d950a3',
    ('cx195_1', 'corpus', 'invariants', 'text'): '8db7f3de460720475973c28d517a5460305856e0f089ca4e6146b26c92585193',
    ('cx195_1', 'corpus', 'obstruct', 'text'): 'ce921b22d3ea35428b04f3dc35c9193357e359fdf658d187911b8c531411098e',
    ('cx195_2', 'corpus', 'invariants', 'text'): '2025d0be5cd264ec7599d82d866460531b63e0dc9219ef0bd3bd7739e54ed430',
    ('cx195_2', 'corpus', 'obstruct', 'text'): '79f2179ff557d45fe44b155e27ef95a38feb11e27cc7449412c178b61b7a397c',
    ('cx195_3', 'corpus', 'invariants', 'text'): '644864f183bc2548548cb34bdbd57699cbbe81b3c6f1d2bf41d7e0e481d541dd',
    ('cx195_3', 'corpus', 'obstruct', 'text'): '34461cd29e5c7c2d24bcb5b82406a23ff87fd947f981365e06cdc561d9b15e27',
    ('cx195_4', 'corpus', 'invariants', 'text'): 'a9d3682c2a7f16600585949145487f1a495caf3fcb678f5cfcd00d1fb87c1356',
    ('cx195_4', 'corpus', 'obstruct', 'text'): 'ef7fb2d22f64cca8ed702db9d1f71a1b2b65bdfeb836f77458f907e32f7a6377',
    ('example_d17', 'corpus', 'invariants', 'text'): '0fa27619ddcc2cb56666f9ba09dc502a913d936711388c492ec095b0bd9e1caf',
    ('example_d17', 'corpus', 'obstruct', 'text'): '5e6d8bd3c34d664a5cd1fc31a7e7d5be708e9ff932dce094f910f5e65ec3eec2',
    ('granny', 'corpus', 'invariants', 'text'): 'e83a92b2722e0a9ce66f06807134466765101ca87e34cffaf659f155a3ee89b8',
    ('granny', 'corpus', 'obstruct', 'text'): '9bc06d0d0ba31bc69cd59f7faa3ff66ae0ec05331297481dece1dd24c310fe45',
    ('granny', 'pd', 'invariants', 'text'): 'e83a92b2722e0a9ce66f06807134466765101ca87e34cffaf659f155a3ee89b8',
    ('granny', 'pd', 'invariants', 'machine'): '3edc9d883b9bfac4f64c572b6600998fb9a55db4dfd412f77f19b50d9067f7ab',
    ('granny', 'pd', 'obstruct', 'text'): '9bc06d0d0ba31bc69cd59f7faa3ff66ae0ec05331297481dece1dd24c310fe45',
    ('granny', 'pd', 'obstruct', 'machine'): '8e5c88547210187dc3b149e8ec1cf4c378d045cf16b6cacce92f9605359096f7',
    ('hopf_minus', 'corpus', 'invariants', 'text'): 'd11264df18ac8123ba5caada78ddf9b2b12124dc501035021b9f8f4636abcc57',
    ('hopf_minus', 'corpus', 'obstruct', 'text'): 'e7aa092bd0c720dd0c40c305394e325d226b411f960619fa88e9ef8ace23f94e',
    ('hopf_minus', 'pd', 'invariants', 'text'): 'a6813c2cfb837e51e3395fd59e51520d0b8c8cbba29782f3094f4c6d5e04db0c',
    ('hopf_minus', 'pd', 'invariants', 'machine'): '682d632e086f24b0c2e0d9301eba6090a2ad079ccca1d2cb449833cf04689f83',
    ('hopf_minus', 'pd', 'obstruct', 'text'): 'e7aa092bd0c720dd0c40c305394e325d226b411f960619fa88e9ef8ace23f94e',
    ('hopf_minus', 'pd', 'obstruct', 'machine'): '4297e574e8d8f2c4fa019ab3167419fd4ef3083300b6a81ef8bc52c7c16e01d4',
    ('hopf_plus', 'corpus', 'invariants', 'text'): '97518fcefcd9ef8cf42909b1d2b66248a29894629230161f224701f307a99fdd',
    ('hopf_plus', 'corpus', 'obstruct', 'text'): 'ef2d3bd6c977cee38c8b614c40a108061926ff138ae99d01c481201d3b540f4a',
    ('hopf_plus', 'pd', 'invariants', 'text'): '56b65a41900cd00e73001fa3b215f35c5717b4bbd7fda061daf5d45418babe95',
    ('hopf_plus', 'pd', 'invariants', 'machine'): '34cf0deb4a70a9502c71eaf23a86b3e070986d9a1cb39606e406baf47d1aeca3',
    ('hopf_plus', 'pd', 'obstruct', 'text'): 'ef2d3bd6c977cee38c8b614c40a108061926ff138ae99d01c481201d3b540f4a',
    ('hopf_plus', 'pd', 'obstruct', 'machine'): '3b110970d1af27f8c556aa298de0b66e8a7a4a9d9ce3e52984a1af416b5db6ec',
    ('m12n553', 'corpus', 'invariants', 'text'): '8638851ff405a99b7904af53a983f6dca6f4a0520ffb5cd47177d725babf2a34',
    ('m12n553', 'corpus', 'obstruct', 'text'): 'bd86b2d8e887163a3ccc146e53bd9b8f660e0042942a329c4839c5145fbc4a71',
    ('p3_3_3', 'corpus', 'invariants', 'text'): 'd5b5febe80a638fc078512c712e8183775ab0a67df43d4589ccb682d2d7e4ca8',
    ('p3_3_3', 'corpus', 'obstruct', 'text'): '9e68b10d07248f713c26cd3fe0aaf1ced597efa7cbe49cd407d0a8e2179581dd',
    ('p3_3_3', 'pd', 'invariants', 'text'): 'b543a93e4fbd0ab342fe745c43b3f6d0a9a601ca8983b805e1238bc9ad6c85eb',
    ('p3_3_3', 'pd', 'invariants', 'machine'): '18ab1b5bd5fd5f3de39727eaeefde4488aed128eedc6516d65e9ba5807bdf771',
    ('p3_3_3', 'pd', 'obstruct', 'text'): '9e68b10d07248f713c26cd3fe0aaf1ced597efa7cbe49cd407d0a8e2179581dd',
    ('p3_3_3', 'pd', 'obstruct', 'machine'): 'a5bc3e953c71afe5eac0adf213e203a19835405e727838bea61d4db1906b91d5',
    ('p3m33', 'corpus', 'invariants', 'text'): 'c54afc75d89ebead113140efca09f1f2e0f6141e9516f5d410f4cfc952f822a7',
    ('p3m33', 'corpus', 'obstruct', 'text'): '92276da4a21436587d862c7d402a0e6a435b253bc447eeb72db8bea2e02b1147',
    ('p3m33', 'pd', 'invariants', 'text'): '2783624531eb2bbd88082f8e96397c6148a0a736b66391124fe46e58b1a40df9',
    ('p3m33', 'pd', 'invariants', 'machine'): 'dc1506ceae284d3e8224d6f5c313ec4327205caa34595d03590cb0f925ac70d1',
    ('p3m33', 'pd', 'obstruct', 'text'): '92276da4a21436587d862c7d402a0e6a435b253bc447eeb72db8bea2e02b1147',
    ('p3m33', 'pd', 'obstruct', 'machine'): 'b9cd4da27e0db000b7d909c6125ad30bd27b7bdc50bc811bf25e6f91b475e3b1',
    ('p5_17_5', 'corpus', 'invariants', 'text'): '4c5a34e834ba80f252daaa9a1ef2d89ef89c1a9d1281bec2ba7152314b244a16',
    ('p5_17_5', 'corpus', 'obstruct', 'text'): 'b5acae19cbb61db59b9b0b4bdbe80d91b3968301983bb48b7ed248386c646536',
    ('p5_17_5', 'pd', 'invariants', 'text'): 'e464c4f75c6363dc22081498949c18306b90504fb2dd89165b45b46661556fc8',
    ('p5_17_5', 'pd', 'invariants', 'machine'): '206bb48151df9233b5ce70b69e85724dc7d0908acf2702a7dc811d8cecefc974',
    ('p5_17_5', 'pd', 'obstruct', 'text'): 'b5acae19cbb61db59b9b0b4bdbe80d91b3968301983bb48b7ed248386c646536',
    ('p5_17_5', 'pd', 'obstruct', 'machine'): '17e917d6466c18bd483ea12e35e2c66c3e26e1e40e6808ab869b2b276dbc7bd5',
    ('p777m', 'corpus', 'invariants', 'text'): '277b081136279337d6cc9c38021e4ac5b66a128791d4e778d8bc4c0745979ef7',
    ('p777m', 'corpus', 'obstruct', 'text'): '3694b4cf4da9f18fa17bb59c8da95e3ac05863664537e03478022586d0aca6e4',
    ('p777m', 'pd', 'invariants', 'text'): '82070fa686ea0980a9fdfe9b0ca583df2fd11d3522b09a3bb4b71a5d4e235eb3',
    ('p777m', 'pd', 'invariants', 'machine'): 'd34e2a0b3e7d1056e64f7cfabd578ba8a930423ffcc3a89d9ea6ade032693a2e',
    ('p777m', 'pd', 'obstruct', 'text'): '3694b4cf4da9f18fa17bb59c8da95e3ac05863664537e03478022586d0aca6e4',
    ('p777m', 'pd', 'obstruct', 'machine'): 'f6d9b606b7151bf29e9a710e72267538602ea85f76eb8c676eba6b96b58465e3',
    ('square', 'corpus', 'invariants', 'text'): '6bca5b72c41288436a3e1cea42a3b11aeca164828ccfa98340113b103767af15',
    ('square', 'corpus', 'obstruct', 'text'): 'a5b62f6c3d317f7c8240c34c30a729fe544d732a59104442f59210dc183de362',
    ('square', 'pd', 'invariants', 'text'): '6bca5b72c41288436a3e1cea42a3b11aeca164828ccfa98340113b103767af15',
    ('square', 'pd', 'invariants', 'machine'): '22ad75781e2095f9fae9bbfbfe69a3abb749b63fa99a51d7a310d1723a3be4a3',
    ('square', 'pd', 'obstruct', 'text'): 'a5b62f6c3d317f7c8240c34c30a729fe544d732a59104442f59210dc183de362',
    ('square', 'pd', 'obstruct', 'machine'): '41fd7446acd1c40ea0381d7c02b2a93d533e39dfefda0a89d5a7583c818a7908',
    ('t2_4', 'corpus', 'invariants', 'text'): '9a833802118d01fc35cba88f268a730e4b38a277459d85c3f90ba64cdf7e69c1',
    ('t2_4', 'corpus', 'obstruct', 'text'): 'cfaf4e74a0a0c285a985fa2248754b90166db889de19353e0dba2f206a91f75c',
    ('t2_4', 'pd', 'invariants', 'text'): '9a833802118d01fc35cba88f268a730e4b38a277459d85c3f90ba64cdf7e69c1',
    ('t2_4', 'pd', 'invariants', 'machine'): 'deea9940e1e70bef9535d19c29523f44d2b89bbd6decf4173da6f734fb655944',
    ('t2_4', 'pd', 'obstruct', 'text'): 'cfaf4e74a0a0c285a985fa2248754b90166db889de19353e0dba2f206a91f75c',
    ('t2_4', 'pd', 'obstruct', 'machine'): '679b4bba272337f0f26dc2f8c55132238eaaa8c02b1c1fb9976ffd24c5f76e89',
    ('t2_4_rev', 'corpus', 'invariants', 'text'): 'b96f89d73d65a3085a5f0447610b2defd8c7d18e83213a3c9574b51ef058deb7',
    ('t2_4_rev', 'corpus', 'obstruct', 'text'): '51427a55702ebfdcce1fc4fedab2fb5cc67049a262857379c80bb09ab61af73f',
    ('t2_4_rev', 'pd', 'invariants', 'text'): 'b96f89d73d65a3085a5f0447610b2defd8c7d18e83213a3c9574b51ef058deb7',
    ('t2_4_rev', 'pd', 'invariants', 'machine'): '428dc4bb479a21911f113fac2456db3a193db2ffd1221f7dc6a36438f2767189',
    ('t2_4_rev', 'pd', 'obstruct', 'text'): '51427a55702ebfdcce1fc4fedab2fb5cc67049a262857379c80bb09ab61af73f',
    ('t2_4_rev', 'pd', 'obstruct', 'machine'): 'd1330dc5a4307dc2f2b6265f6ef8896cfadb300f14f031e848494dbbc98dd1b5',
    ('t2_5', 'corpus', 'invariants', 'text'): 'ff553a12eab847dda8523b9c48509da2294a7940b764d12d24efcee9001e306e',
    ('t2_5', 'corpus', 'obstruct', 'text'): '3f935dc56593ddf3bdc2dff3f1fa27ea74ad3bb32c99157f078a2946ef30051a',
    ('t2_5', 'pd', 'invariants', 'text'): 'ff553a12eab847dda8523b9c48509da2294a7940b764d12d24efcee9001e306e',
    ('t2_5', 'pd', 'invariants', 'machine'): '7d2368067bb7f703e5a55f16454ed713d97ccaec911a9f465f55cfcc86135703',
    ('t2_5', 'pd', 'obstruct', 'text'): '3f935dc56593ddf3bdc2dff3f1fa27ea74ad3bb32c99157f078a2946ef30051a',
    ('t2_5', 'pd', 'obstruct', 'machine'): '5372e8128e009bdd744aa5e721a971a80fb6f38c8a487176349cec2c74460f84',
    ('t2_6', 'corpus', 'invariants', 'text'): '8138dede2896c7203d982699e829638feb41e536bd919437dffc9a55c3e43181',
    ('t2_6', 'corpus', 'obstruct', 'text'): '9cade2049e943d0b18654f19dfacd6b1a51ca72892d188974f62a0018b1cbec0',
    ('t2_6', 'pd', 'invariants', 'text'): '8138dede2896c7203d982699e829638feb41e536bd919437dffc9a55c3e43181',
    ('t2_6', 'pd', 'invariants', 'machine'): '1f24569bcd2b6633fec0ea62d7558a5d11f872bbba2dc1230fda2acaec8d8631',
    ('t2_6', 'pd', 'obstruct', 'text'): '9cade2049e943d0b18654f19dfacd6b1a51ca72892d188974f62a0018b1cbec0',
    ('t2_6', 'pd', 'obstruct', 'machine'): '74226761f33aa3f32f3220acd3d31336929c52f3fd7167484b57c123bc89053c',
    ('t2_7', 'corpus', 'invariants', 'text'): 'ebb9ccba7e9e8cd703327771159e963f79dbecfbc0a39b4b83e09de7c3e47226',
    ('t2_7', 'corpus', 'obstruct', 'text'): '1c162a288c783703fa98049c8285122cec7a1fd4cc226b20145a03e6f80edcd9',
    ('t2_7', 'pd', 'invariants', 'text'): 'ebb9ccba7e9e8cd703327771159e963f79dbecfbc0a39b4b83e09de7c3e47226',
    ('t2_7', 'pd', 'invariants', 'machine'): 'dbcaef59e408d8b148daff32cb3f047fe0eeac2768a7eea1001976c9ae9a8e97',
    ('t2_7', 'pd', 'obstruct', 'text'): '1c162a288c783703fa98049c8285122cec7a1fd4cc226b20145a03e6f80edcd9',
    ('t2_7', 'pd', 'obstruct', 'machine'): 'e2d4c0b0a0324d22e291b515c5c5f746b4fc0c5557c3eebd0a6cd58a8cde79ab',
    ('t2_9', 'corpus', 'invariants', 'text'): '0b0005c78f7b63d1752f57cf17849d4ee78dbacc8a7cf5fbae72fa4a97cf051c',
    ('t2_9', 'corpus', 'obstruct', 'text'): '22a6da1f75671015971b0bfd9ba669adc93b324a97d1733f4ea6fe2f20aaf059',
    ('t2_9', 'pd', 'invariants', 'text'): '0b0005c78f7b63d1752f57cf17849d4ee78dbacc8a7cf5fbae72fa4a97cf051c',
    ('t2_9', 'pd', 'invariants', 'machine'): '7daa4baa4a77d098cc03142ba97cf45d6481770e7b260ab6eac689ccbe99e000',
    ('t2_9', 'pd', 'obstruct', 'text'): '22a6da1f75671015971b0bfd9ba669adc93b324a97d1733f4ea6fe2f20aaf059',
    ('t2_9', 'pd', 'obstruct', 'machine'): '8f5bca3d169ccde4735b4d7be22d44e65c5892008e6e486f77ef80944c9bb3f6',
    ('t3_4', 'corpus', 'invariants', 'text'): 'a3d97da4af01530ce21546ca49402f7dca1cf632eaadbac8fb803bf9cce36d61',
    ('t3_4', 'corpus', 'obstruct', 'text'): 'a90f3984af4e7c3c65b362277f3c185ac3ea62c95c250d005814448e6662e759',
    ('t3_4', 'pd', 'invariants', 'text'): 'a3d97da4af01530ce21546ca49402f7dca1cf632eaadbac8fb803bf9cce36d61',
    ('t3_4', 'pd', 'invariants', 'machine'): '03ba3ebd59c5ebd9a8da0ca202d6a1d283f5c7a3b889a6e4d5f6cccd01e87dda',
    ('t3_4', 'pd', 'obstruct', 'text'): 'a90f3984af4e7c3c65b362277f3c185ac3ea62c95c250d005814448e6662e759',
    ('t3_4', 'pd', 'obstruct', 'machine'): '645f6a9a686c999a1d8871147088d723faaf7d61ff7c10ce0edb710ed2a1b351',
    ('unlink2', 'corpus', 'invariants', 'text'): '04ffcf0ae1c4a3c92d369bbaa9988f1ff097ed091270904b3d2d9bbe5e3c07d5',
    ('unlink2', 'corpus', 'obstruct', 'text'): 'b0459161f9b2cc8af296af297260b62372088284479140cc20eff7242f261a1e',
    ('unlink2', 'pd', 'invariants', 'text'): '04ffcf0ae1c4a3c92d369bbaa9988f1ff097ed091270904b3d2d9bbe5e3c07d5',
    ('unlink2', 'pd', 'invariants', 'machine'): '330a29590174549c67cf12b967d36b2468bdf4b649e64d04573413b7402d3c14',
    ('unlink2', 'pd', 'obstruct', 'text'): 'b0459161f9b2cc8af296af297260b62372088284479140cc20eff7242f261a1e',
    ('unlink2', 'pd', 'obstruct', 'machine'): 'e0b1f987d1d8039f59bbcb064ab66e6be499de8238e79c6bfe9c4b50201ec9d0',
}


def _digest(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0, argv
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def test_cli_machine_output_is_golden_on_the_corpus():
    stems = sorted(f[:-4] for f in os.listdir(CORPUS_DIR) if f.endswith(".txt"))
    assert stems == sorted(GOLDEN)
    changed = [
        (stem, cmd)
        for stem in stems
        for cmd, want in zip(("invariants", "obstruct"), GOLDEN[stem])
        if _digest(cmd, os.path.join(CORPUS_DIR, f"{stem}.txt"), "--format", "machine") != want
    ]
    assert changed == []


def _run_digest(*argv) -> str:
    """sha256 of [exit status, stdout, stderr] of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    return hashlib.sha256(json.dumps([status, out.getvalue(), err.getvalue()]).encode()).hexdigest()


def _inputs(tmp_path):
    """(stem, source, path): every corpus file, and a PD-only copy of each
    one with a diagram."""
    for stem in sorted(GOLDEN):
        path = os.path.join(CORPUS_DIR, f"{stem}.txt")
        yield stem, "corpus", path
        with open(path) as fh:
            entry = parse_entry(fh.read(), stem)
        if entry.diagram is not None:
            copy = tmp_path / f"{stem}.txt"
            copy.write_text(f"name: {entry.name}\npd: {pd_text(entry.diagram)}\n")
            yield stem, "pd", str(copy)


def _run_digests(tmp_path) -> dict:
    return {
        (stem, source, cmd, fmt): _run_digest(cmd, path, "--format", fmt)
        for stem, source, path in _inputs(tmp_path)
        for cmd in ("invariants", "obstruct")
        for fmt in ("text", "machine")
        if (source, fmt) != ("corpus", "machine")  # pinned by GOLDEN
    }


def test_cli_outputs_are_golden_in_both_formats_on_pd_only_copies_too(tmp_path):
    got = _run_digests(tmp_path)
    assert sorted(got) == sorted(RUNS)
    assert len(RUNS) == 78 + 132
    assert [key for key, want in RUNS.items() if got[key] != want] == []
