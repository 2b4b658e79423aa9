"""Byte pins of the command line: each input's output, digested.

For every input the pin is a sha256 over four parts: stdout with the
``timestamp`` value blanked, stderr, the exit code, and the files an
``--out`` run leaves (name and contents, timestamp blanked, in name order).
Recorded with numpy's bundled OpenBLAS on x86_64; another BLAS may round the
printed floats differently.
"""

import hashlib
import re

import pytest

from fepkit.cli import main

# input -> pin; the comment gives the exit code
PINS = {
    'classify --model lieb:hermitian --k pi,pi': 'a08d1f97636c93c115a30ad1c8043cde37c291055218ec26cb51273214524a52',  # exit 0
    'classify --model lieb:minimal-fep --eps 1 --k pi,pi': '906b5b519a8ccbd503db396465b04db700052216810555d2f60b77458f69f37e',  # exit 0
    'classify --model lieb:nh-symmetric --eps 1 --k 2pi/3,-2pi/3': '3193f2b80ff2297ccf7cbfb58c1df7e28d6869d51392237aeb1308b58fd6d66b',  # exit 0
    'classify --model hodsm:nh3 --eps 0.5 --kz pi/2': 'c4039d8d700655d431538a54f3cf983b137e52c9428afdc9a5de29f67d3f6b11',  # exit 0
    'classify --model hodsm:nh1 --eps 0.7071067811865476 --kz pi/4': '0990348c8fae2253aed9b675588c73fd6e04a4432bc70531e0a1e756579a8541',  # exit 0
    'classify --model lieb:hermitian --k 0,0 --energy 5': 'f4b2af8c27114bb692aeee2feb3fd8bd8adbc04141b43d43daf23e78dca2b160',  # exit 2
    'scan --model lieb:hermitian --grid 16': '8cdf308373a98330e553c69f933fc79571b5867d29036e75b0537ebfceb711ae',  # exit 0
    'scan --model lieb:nh-symmetric --eps 0.8 --grid 32': '031d090bbb996d7374f89a17945ae6b63df1681abdf1118e5a4c596831e8bb93',  # exit 0
    'scan --model lieb:minimal-fep --eps 1.3 --grid 32': '891f622c18af6ab445c4ad788e6a9b8db985abe540343b3cb0f19523eed98336',  # exit 0
    'scan --model lieb:reciprocal --phi 0.7 --psi 2.1 --grid 32': 'bd59aad67b325ef1c3b5156f5e19ccfea6aa9fc721dc69610fa253326a9e3b85',  # exit 0
    'scan --model hodsm:h --grid 16': 'e589b3b37cae9ec0a961083ecb6d63ed7b11159548f45941214e1d995aefa33c',  # exit 0
    'scan --model hodsm:nh1 --eps 0.6 --grid 16': 'aa76252b00621ecb6d95c47feef8c0371502bda5371c34114e15c1b19a7acb44',  # exit 0
    'scan --model hodsm:nh2 --eps 0.3 --grid 16': '3d2b210915c5be58afe60e3a5ff53c1de14dca98e5fb7a86975e5bd56ad98539',  # exit 0
    'scan --model hodsm:nh3 --eps -0.5 --grid 16': '049fda9970457c33e518a3ccf43ed92cc6f82b32db858dfdce0b92c559741cdc',  # exit 0
    'scan --model hodsm:nh4 --eps 0.35 --grid 16': 'c8a7c9161caec363370d86a38b94dac8cca4459688e76c95b09da64929729734',  # exit 0
    'scan --model hodsm:nh4 --eps 0.2 --grid 32': 'a70e11281ddf596b8d246e865f2a9c94ec68e44dea7aaefa91ed2b3d6843c0d2',  # exit 2
    'ring --model lieb:reciprocal --phi pi/4 --psi pi/4 --samples 16': 'aecf87dae4a07407f0530c76fa25269c9572b03c2fff43b05ba3ff0b0e4e9a77',  # exit 0
    'contour --model lieb:minimal-fep --eps 1 --grid 8': 'f52505376d49f3491794a0b89b60a7bf6df68b395345880a092882d9f9bd7556',  # exit 0
    'contour --model hodsm:nh2 --eps 0.5 --grid 4 --kz 0.3': '24b7d7d8e0e66fee95ab967aba6cb0dfd21ccf515feee69956b7e41b9338fbc9',  # exit 0
    'band --model hodsm:nh3 --eps 0.5 --path kz=-pi:pi:9': 'ea0d105d68e0bbe59eb7b27aee94be96e699f40912b4944de7288530b18c8d16',  # exit 0
    'hinge --model hodsm:nh3 --eps 0.5 --nx 3 --ny 3 --out doc.json': 'de05d1c4324560d61c6ae26972c03ff2223339725609a692262c89ffa34a84db',  # exit 0
    # many repeated values: each distinct float is formatted once
    'band --model hodsm:h --path kz=-pi:pi:9': '453ac6603d52f1c76011de3f2bb8d530e221aa3a75ca3347e99ed98d8c12bb65',  # exit 0
    'contour --model lieb:hermitian --grid 16': 'c80db26eb5680e6a694a8f65e53c5a1fd194f2fdffecd0a802a7bec746870f7e',  # exit 0
    'hinge --model hodsm:h --nx 3 --ny 3 --out doc.json': '41ae670014355e71416042a873635037c4b902080c0ad64031249dad3d15a085',  # exit 0
    'probe --kind lineshape --model hodsm:nh3 --eps 0.5 --kz pi/2': '26645b4cb463d052f57e123a11c0ab8b83481cb280237d3a9b91707619a81b84',  # exit 0
    'probe --kind splitting --model hodsm:nh3 --eps 0.5 --kz pi/2': '72085dd30c4c671a22bad00cb1def18ad185188721d0d4ec1620d318aef0cfbd',  # exit 0
    'probe --kind decay --model hodsm:nh1 --eps 0.25 --nx 6 --ny 30': '928f3de98d1c37aa11867b7e6f77392a6c1d08f73a25a1484f49597a4779fb1e',  # exit 0
    'probe --kind atomistic --model hodsm:nh3 --eps 0.5 --t -0.5': 'c63d1678ef4e31fcbfdd89ee9a1d201f92ee318430944045d14807fa70301de7',  # exit 0
    'probe --kind chiral --model hodsm:nh4 --eps 0.35': '36eef036a3ba2ff9e9078766110030699d60c108131bbef34453d313c4325291',  # exit 0
    'probe --kind rotation-c4 --model hodsm:nh4 --eps 0.35': '3c0d8703aea2eb264f82582ccf58d057eeb5d109c917cbe255095b0258f13b5d',  # exit 0
    'probe --kind kramers --model hodsm:nh4 --eps 0.35 --nx 3 --ny 3': '759752beebfe1cafc722554d74f03aba7a626714882aa3ce1f9a783cb919baf9',  # exit 0
    'probe --kind sum-rule-ba --model hodsm:nh4 --eps 0.35 --nx 3 --ny 3': '79fc669df47b61b5d5de6caa3af2baee5004db47a54fb4e275b41921ff58e2ff',  # exit 0
    'probe --kind sum-rule-cd --model hodsm:nh4 --eps 0.35 --nx 3 --ny 3': 'e361a20b998263e785351d8ee2748c51462b6d1d280816cfb03b4fd50378a7e4',  # exit 0
    'probe --kind reflection --model hodsm:nh4 --eps 0.35 --nx 3 --ny 3': '66f39c348f552b897d778191f11fccbae5d7a21d08e65792597435f48fa2374c',  # exit 0
    'probe --kind transposition --model hodsm:nh4 --eps 0.35 --nx 3 --ny 3': '4ed2edb07fa716d18bba09652ade2af2a33baef793f4ca77cb5254c5e423bc46',  # exit 0
    # the factor at E = 0 is exactly singular: solved at the real shift 1e-6, real energies with im 0
    'hinge --model hodsm:nh4 --eps 0.5 --nx 3 --ny 3 --out doc.json': '2abbc8cff9fa0bd58ea86e40e0a6bb3a575fbe3e55b769bba3727e2191b2d401',  # exit 0
}


def _untimed(text: str) -> str:
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


@pytest.mark.parametrize("argv", PINS)
def test_cli_bytes(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(argv.split())
    out = capsys.readouterr()
    h = hashlib.sha256()
    for part in (_untimed(out.out), out.err, str(code)):
        h.update(part.encode() + b"\0")
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + _untimed(path.read_text()).encode() + b"\0")
    assert h.hexdigest() == PINS[argv]
