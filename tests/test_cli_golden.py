"""Byte-level regression pins for the CLI and for report JSON.

Each argv runs in-process in text and in JSON format; the sha256 of its exit
code, stdout and stderr must equal the pinned value. The corpus covers every
verb's success path, negative verdicts, every `derive` kind, every `check`
suite, sampled `equiv` (the exact test, with an equivalent pair reported as
inconclusive), exact `equiv` over 25 points, and capacity errors. To re-pin
after an intended output change, print `digests(dir)` and review the diff.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from uag.cli import main
from uag.geometry import FaithfulVerdict
from uag.logic import FundamentalReport, OpenVarietyReport
from uag.reports import emit
from uag.terms import app

WORKSPACE = """\
; on top of --builtin group
(pairs T ((mul x x) e))
(pairs Comm ((mul x y) (mul y x)))
(pairs E)
(pairs XY (x y))
(rel-sig (P g))
(model M Z4 (rel P (1) (3)))
(formula q (exists (y) (eq (mul y y) x)))
(formula r (rel P x))
(formula u (not (eq x e)))
(clause comm identity ((mul x y) (mul y x)))
(clause sq pseudo ((mul x x) e))
(clause mixed universal (pos (x y)) (neg (x e)))
(clause imp quasi (ante ((mul x x) e)) (cons x (inv x)))
"""

W = ("--builtin", "group", "-f", "ws.sx")
SMALL = ("-c", "C2", "--iterations", "2", "--width", "1", "--depth", "2", "--budget", "500")
TWO = ("-a", "Z4", "--ctx-a", "C1", "--ctx-b", "C2")

ARGVS = (
    ("parse", *W),
    ("eval", *W, "-a", "Z4", "-c", "C2", "--term", "(inv (mul x y))", "--point", "1,2"),
    ("variety", *W, "-a", "Z4", "-c", "C2", "-p", "T"),
    ("closure", *W, "-a", "Z4", "-c", "C2", "-p", "T"),
    ("closure", *W, "-a", "Z4", "-c", "C1", "-p", "T", "--query", "(x (inv x))"),
    ("closure", *W, "-a", "Z4", "-c", "C1", "-p", "T", "--query", "(x e)"),
    ("closure", *W, "-a", "Z4", "-c", "C2", "-p", "E", "--cap", "20"),
    ("closure", *W, "-a", "Z4", "-c", "C2", "-p", "E", "--cap", "20", "--query", "(x y)"),
    ("nullsatz", *W, "--image", "Z4", "--assignment", "1,2", "--target", "Z2", "-c", "C2"),
    ("nullsatz", *W, "--image", "S3", "--assignment", "1,3", "--target", "Z6", "-c", "C2"),
    ("point-closure", *W, "-a", "Z4", "-c", "C2", "--point", "2,0"),
    ("verbal", *W, "-a", "S3", "-c", "C2", "-p", "Comm"),
    ("morphism", *W, *TWO, "--pairs-a", "E", "--pairs-b", "T", "--subst", "((x (mul x x)) (y e))"),
    ("morphism", *W, *TWO, "--pairs-a", "E", "--pairs-b", "T", "--subst", "((x x) (y e))"),
    ("iso", *W, *TWO, "--pairs-a", "E", "--pairs-b", "XY"),
    ("iso", *W, *TWO, "--pairs-a", "T", "--pairs-b", "XY"),
    ("equiv", *W, "-a", "Z2", "-b", "Z4", "-c", "C1"),
    ("equiv", *W, "-a", "Z2", "-b", "V4", "-c", "C1"),
    ("equiv", *W, "-a", "Z2", "-b", "V4", "-c", "C1", "--mode", "sampled", "--samples", "5"),
    ("equiv", *W, "-a", "Z2", "-b", "Z4", "-c", "C2", "--mode", "sampled", "--samples", "6", "--seed", "3"),
    ("equiv", *W, "-a", "Z5", "-b", "Z2", "-c", "C2", "--samples", "4"),
    ("equiv", *W, "-a", "Z4", "-b", "Z2", "-c", "C2", "--cap", "15"),
    ("derive", *W, "--kind", "identity", "--seeds", "comm", *SMALL),
    ("derive", *W, "--kind", "pseudo", "--seeds", "sq", *SMALL),
    ("derive", *W, "--kind", "universal", "--seeds", "mixed", *SMALL),
    ("derive", *W, "--kind", "quasi", "--seeds", "imp", *SMALL),
    ("query", *W, "-a", "Z4", "--clause", "comm"),
    ("query", *W, "-a", "S3", "--clause", "comm"),
    ("fo-variety", *W, "--model", "M", "-c", "C2", "--formulas", "r"),
    ("fo-variety", *W, "--model", "M", "-c", "C2", "--formulas", "q", "--closure-query", "u"),
    ("check", "--suite", "galois", "--trials", "3"),
    ("check", "--suite", "nullsatz", "--trials", "3"),
    ("check", "--suite", "rules", "--trials", "1"),
    ("check", "--suite", "fundamental", "--trials", "3"),
    ("check", "--suite", "halmos", "--trials", "1"),
    ("check", "--cap", "6"),
)

# result classes no verb emits
REPORTS = {
    "FaithfulVerdict": FaithfulVerdict("not-faithful", witness=(app("c_g_0"), app("c_g_1"))),
    "FundamentalReport": FundamentalReport("sub-below", False, True, 3, 5),
    "OpenVarietyReport": OpenVarietyReport(False, True, ((0, 1), (2, 3))),
}


def _sha(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def digests(workdir) -> dict[str, str]:
    """sha256 of (exit code, stdout, stderr) per argv, and of each report's JSON.

    workdir must be the current directory; the workspace is written there
    as ws.sx, so error messages name it by that relative path.
    """
    (workdir / "ws.sx").write_text(WORKSPACE, encoding="utf-8")
    out: dict[str, str] = {}
    for base in ARGVS:
        for fmt in ("text", "json"):
            argv = [*base, "--format", fmt]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            out[" ".join(argv)] = _sha(code, stdout.getvalue(), stderr.getvalue())
    for name, rep in REPORTS.items():
        out[f"emit {name}"] = _sha(emit({"report": rep}, "json"))
    return out


GOLDEN: dict[str, str] = {
    'parse --builtin group -f ws.sx --format text': 'b3f2a7525e0890e4ec1b51c378ae252c195f29d8d96b2abd81538d5174030e95',
    'parse --builtin group -f ws.sx --format json': '061b96b940354e638d85ee01f266bb44fc341dfc8b629437968b7d3371ce45bd',
    'eval --builtin group -f ws.sx -a Z4 -c C2 --term (inv (mul x y)) --point 1,2 --format text': '125042d68c3a355b02867429cee5c9e9cb7ae679df168e63c57ea94e9ec10c96',
    'eval --builtin group -f ws.sx -a Z4 -c C2 --term (inv (mul x y)) --point 1,2 --format json': '5418d4f28f5c43bddf0a603c09807e592fa6ac9d0a1d4310482837c36fe48952',
    'variety --builtin group -f ws.sx -a Z4 -c C2 -p T --format text': 'd4a5808e6a24a969106f01c1713699a488a49d9415e1e295241ac92d9d6f8ce8',
    'variety --builtin group -f ws.sx -a Z4 -c C2 -p T --format json': 'b1ccf1821759efd988ae0d76d43857bfbc983fa88137b4960d33108ace13fce1',
    'closure --builtin group -f ws.sx -a Z4 -c C2 -p T --format text': '3938379cbdffba2b5f7609275476ece6783e13a6821d93b8be262d0944722605',
    'closure --builtin group -f ws.sx -a Z4 -c C2 -p T --format json': 'f30807cde1308aa2a32e60ab78f0bef04bc24b7b915ee9122aa9c706565b86cd',
    'closure --builtin group -f ws.sx -a Z4 -c C1 -p T --query (x (inv x)) --format text': '61253cbc37f1938f27d8113b7c78eb217b1b3ddf06feba4fc738606d24f410bc',
    'closure --builtin group -f ws.sx -a Z4 -c C1 -p T --query (x (inv x)) --format json': '0afd8cdfd047c0f9694ecc361cf53838f17eb2be42b630e5bb6dd3eacb2d8df9',
    'closure --builtin group -f ws.sx -a Z4 -c C1 -p T --query (x e) --format text': '52422962be56a84414b1a4666e9a22a599d19e4554a11dfd53f4aa29415f6974',
    'closure --builtin group -f ws.sx -a Z4 -c C1 -p T --query (x e) --format json': 'f5f143410e2b6dc25881f91cc37e04b093ee8167e8ccf6b8d60efe9392490434',
    'closure --builtin group -f ws.sx -a Z4 -c C2 -p E --cap 20 --format text': 'b34248e1a5f7f2185b6934223cdfae5d5d8e680598cfe55068db5e463d08f920',
    'closure --builtin group -f ws.sx -a Z4 -c C2 -p E --cap 20 --format json': 'b34248e1a5f7f2185b6934223cdfae5d5d8e680598cfe55068db5e463d08f920',
    'closure --builtin group -f ws.sx -a Z4 -c C2 -p E --cap 20 --query (x y) --format text': 'b34248e1a5f7f2185b6934223cdfae5d5d8e680598cfe55068db5e463d08f920',
    'closure --builtin group -f ws.sx -a Z4 -c C2 -p E --cap 20 --query (x y) --format json': 'b34248e1a5f7f2185b6934223cdfae5d5d8e680598cfe55068db5e463d08f920',
    'nullsatz --builtin group -f ws.sx --image Z4 --assignment 1,2 --target Z2 -c C2 --format text': '0f645f15e92fa9fa8c0f245689e3a27b496232c08de5ed38c3a48bb217c09f88',
    'nullsatz --builtin group -f ws.sx --image Z4 --assignment 1,2 --target Z2 -c C2 --format json': 'ad77d68d6174c67dead9f34431fd6ab352015de456cea8b1e2ebebafc7cb9e22',
    'nullsatz --builtin group -f ws.sx --image S3 --assignment 1,3 --target Z6 -c C2 --format text': '1c51eda1f2a3add7ee10a4aad56307cb63d30498ecc8ef2ae316d3a748a831bf',
    'nullsatz --builtin group -f ws.sx --image S3 --assignment 1,3 --target Z6 -c C2 --format json': 'cdfbbced868fdc0e99703c6239268010d6b6108f033674d80adc201463207e0e',
    'point-closure --builtin group -f ws.sx -a Z4 -c C2 --point 2,0 --format text': '0003f8b9ef1dfae7151f1df49886e65fa51e204e32abbe898493badbf737676e',
    'point-closure --builtin group -f ws.sx -a Z4 -c C2 --point 2,0 --format json': 'e5e5aae0d3890f51be00cf8750875f6b2143b21337003ef111965495756c0b76',
    'verbal --builtin group -f ws.sx -a S3 -c C2 -p Comm --format text': '9c602df2edbb131d8df532ef0e241bf35d77556e00048d12b4de7d0563f7904f',
    'verbal --builtin group -f ws.sx -a S3 -c C2 -p Comm --format json': '7b5fb7fa92a48b1f73f00762e6a3409e19dbb1f229ed1311a8121b90b41df02d',
    'morphism --builtin group -f ws.sx -a Z4 --ctx-a C1 --ctx-b C2 --pairs-a E --pairs-b T --subst ((x (mul x x)) (y e)) --format text': 'a717d225c4f3c3d4076151ac85a8d19c03cec1d5c1a23c9cbc512942677e4bb3',
    'morphism --builtin group -f ws.sx -a Z4 --ctx-a C1 --ctx-b C2 --pairs-a E --pairs-b T --subst ((x (mul x x)) (y e)) --format json': '9438041739bd5b1395e3dbba5eb6c4198720595c6e2d6c180d317e04303f5e7a',
    'morphism --builtin group -f ws.sx -a Z4 --ctx-a C1 --ctx-b C2 --pairs-a E --pairs-b T --subst ((x x) (y e)) --format text': '56c4985a1e5e5eb54ce8859fca1cb2207f0e4f56a39cd7253975e2096066261c',
    'morphism --builtin group -f ws.sx -a Z4 --ctx-a C1 --ctx-b C2 --pairs-a E --pairs-b T --subst ((x x) (y e)) --format json': '7734dbdfffd38d897a393458d13dc67971401eb76a9363b27cd8c678eb06a300',
    'iso --builtin group -f ws.sx -a Z4 --ctx-a C1 --ctx-b C2 --pairs-a E --pairs-b XY --format text': '072ccd7419b396397f659d6596d6e6768e8da1a5bded97a9d33ac2d6bb1ee67c',
    'iso --builtin group -f ws.sx -a Z4 --ctx-a C1 --ctx-b C2 --pairs-a E --pairs-b XY --format json': '23dba9f92ee148debc74995712724e995eb759bc5cf19ee6b70f37ecb3f44681',
    'iso --builtin group -f ws.sx -a Z4 --ctx-a C1 --ctx-b C2 --pairs-a T --pairs-b XY --format text': '0a56359d9a2ac161fa9746c1bedb09b158726c1f858299295dd6a0224038b480',
    'iso --builtin group -f ws.sx -a Z4 --ctx-a C1 --ctx-b C2 --pairs-a T --pairs-b XY --format json': '9c8a8e9849658c6a2612e7f4b88e5ae7d35f5c01945a77cd56c7e948664e00c1',
    'equiv --builtin group -f ws.sx -a Z2 -b Z4 -c C1 --format text': '709712ea788fc7bf1f9df820a23457b961032f6496ba3fc3dd1f0da5576bfc8f',
    'equiv --builtin group -f ws.sx -a Z2 -b Z4 -c C1 --format json': '664f1f4513354b87156e077f091b1017f6f5c050419e47e2c72713a347293df5',
    'equiv --builtin group -f ws.sx -a Z2 -b V4 -c C1 --format text': 'be868abf41042f5b9fc5b91b041527abd9f8f182754a0bbceec421b6952e6d98',
    'equiv --builtin group -f ws.sx -a Z2 -b V4 -c C1 --format json': '5e672bd289f337487293cb9ebf67900f70cbc9f41630cd2c58ccc26a960f6821',
    'equiv --builtin group -f ws.sx -a Z2 -b V4 -c C1 --mode sampled --samples 5 --format text': 'c00a2e5403d9fb16e58a4c5d2e546cbdced0ba47534e8a73d5375166d9849bc6',
    'equiv --builtin group -f ws.sx -a Z2 -b V4 -c C1 --mode sampled --samples 5 --format json': '87beb763e68a11b8f007930a79c1e28a270b0bb18ca17ee77cec51b33333c038',
    'equiv --builtin group -f ws.sx -a Z2 -b Z4 -c C2 --mode sampled --samples 6 --seed 3 --format text': 'fa4ec5b4cdb611d38d534a0e34955f812236409baa0e93657a1e4606b081a5c0',
    'equiv --builtin group -f ws.sx -a Z2 -b Z4 -c C2 --mode sampled --samples 6 --seed 3 --format json': 'f2ee26613bbd13aad6605f6303e3cbf54e236be1ca9dc2636717c9d8bfef2586',
    'equiv --builtin group -f ws.sx -a Z5 -b Z2 -c C2 --samples 4 --format text': 'c5f527865e6e733285ffa2d051cc1c98afd53c9612c7511a1e5e078d00739dcd',
    'equiv --builtin group -f ws.sx -a Z5 -b Z2 -c C2 --samples 4 --format json': 'b56fb8675b186eea486f0a5aedb8e8c74caaa12e7a688fac29abb67b3bccdcaf',
    'equiv --builtin group -f ws.sx -a Z4 -b Z2 -c C2 --cap 15 --format text': '58a6d52f67d8ff38e2b28dc28c46343adc8d11c8311a1b17481bc45e6ee71511',
    'equiv --builtin group -f ws.sx -a Z4 -b Z2 -c C2 --cap 15 --format json': '58a6d52f67d8ff38e2b28dc28c46343adc8d11c8311a1b17481bc45e6ee71511',
    'derive --builtin group -f ws.sx --kind identity --seeds comm -c C2 --iterations 2 --width 1 --depth 2 --budget 500 --format text': 'a296575f1758f294567e4424086089624a1ea350d86ca213fb19f473e9d2f2f5',
    'derive --builtin group -f ws.sx --kind identity --seeds comm -c C2 --iterations 2 --width 1 --depth 2 --budget 500 --format json': '7588d80df886bb7b5fe010ccd60916992fd6c5f6c4e0225b0555a773c8c8f5b5',
    'derive --builtin group -f ws.sx --kind pseudo --seeds sq -c C2 --iterations 2 --width 1 --depth 2 --budget 500 --format text': 'd0b153701d622e1ac1240f0f9cc32d69b27b08845000b1e88318253dbd5611ce',
    'derive --builtin group -f ws.sx --kind pseudo --seeds sq -c C2 --iterations 2 --width 1 --depth 2 --budget 500 --format json': '0859c344fdd300563d033f1848e7f00da11aacac7e0ae7d355d329a2d0b6caf4',
    'derive --builtin group -f ws.sx --kind universal --seeds mixed -c C2 --iterations 2 --width 1 --depth 2 --budget 500 --format text': '50c93b985cd9b71b7fcf3fa5e1efc857ad083a8b7b048f705bb91d8ae2485582',
    'derive --builtin group -f ws.sx --kind universal --seeds mixed -c C2 --iterations 2 --width 1 --depth 2 --budget 500 --format json': 'a333573ec173a5b953f23a42e69c76492c885342515c0e816fcfe164417c43d2',
    'derive --builtin group -f ws.sx --kind quasi --seeds imp -c C2 --iterations 2 --width 1 --depth 2 --budget 500 --format text': 'e461252e95bb0d298c40cf0ef4b50a73e4d13161877893e3a4ef62b39c161db8',
    'derive --builtin group -f ws.sx --kind quasi --seeds imp -c C2 --iterations 2 --width 1 --depth 2 --budget 500 --format json': '06de1a2a15fe63b81e260a465e35955b10d14487759123bc22b954cd2d4f802a',
    'query --builtin group -f ws.sx -a Z4 --clause comm --format text': '201dd0f3672417b8bb7375b44134f349bc26f1de96582687c81fe3093b4af0a9',
    'query --builtin group -f ws.sx -a Z4 --clause comm --format json': '4e1b38352d0377a936df1291f2b987a2e981a04419a8d80f1a0ea0e4689964f8',
    'query --builtin group -f ws.sx -a S3 --clause comm --format text': 'f06f9053ce96b7a209230d657f224e431c3a9e6d8a17f58752a0f2a7a69389c6',
    'query --builtin group -f ws.sx -a S3 --clause comm --format json': '9c1e4f89863576239775e48d2d6a4f4224ce2a2484fd4549690d9b92fbebed15',
    'fo-variety --builtin group -f ws.sx --model M -c C2 --formulas r --format text': 'f51bb0b68bd89c63143c625c63618035e2f6eb51f9d660d736fa0e2527685d2f',
    'fo-variety --builtin group -f ws.sx --model M -c C2 --formulas r --format json': 'c8ab632e1dd7c4112d89ece34dc44f65822548fa658450db83d9c5861e3c418f',
    'fo-variety --builtin group -f ws.sx --model M -c C2 --formulas q --closure-query u --format text': '1f0030bc041231f1d0773baca71b5075e564cd2b1aa72dce6e274d768acd8131',
    'fo-variety --builtin group -f ws.sx --model M -c C2 --formulas q --closure-query u --format json': '50015ccb4c840f141c7f0772c366a6a7318a465c977d2043e385704277a88e7d',
    'check --suite galois --trials 3 --format text': '1647581586ce9c16177e4d5ab56c08269457b710bf3d56efc712a66ecafc4ebe',
    'check --suite galois --trials 3 --format json': 'cf2eb6cf995a2336cb23f8e1915d7fdc41e7ce8171e02979afd1927d01d12623',
    'check --suite nullsatz --trials 3 --format text': '77e69529a09610a622020043bfac287d0ca5dc210bc3530997b4c1df535cb3ee',
    'check --suite nullsatz --trials 3 --format json': 'be9beee3f0345325c90af54a69facc0a8fe9e3dc94094ed91facd9ffea400b8e',
    'check --suite rules --trials 1 --format text': '213eedd551db8ba398ec50f6012e736cc57e900e53ee924348885b107837a79f',
    'check --suite rules --trials 1 --format json': '61a7f40a0976bf1d3f6dbf8999cd1719ddcca405dbad418970249a87ae4d8a6f',
    'check --suite fundamental --trials 3 --format text': '81540820119cc55546ad599781956a5270b7175333062e9584c1a2cfc27d22a2',
    'check --suite fundamental --trials 3 --format json': '3349b6434b02f47ea8625de4c862849b7bdec49d068ef561ff8c4aae99b9671f',
    'check --suite halmos --trials 1 --format text': 'a1724ed1e607ffa76f331416f435bdeb98fe986e5eab8d4a3523a2b5c9b7ea3c',
    'check --suite halmos --trials 1 --format json': '00d4ed65c38f82e4295721f71d7c8f9bf2da0c0118d4cf0d39daf638a59f2ce4',
    'check --cap 6 --format text': 'f01067aa65113af31933adde5f3984c7328ddfe5079cec8a16e141f1ceb94702',
    'check --cap 6 --format json': 'f01067aa65113af31933adde5f3984c7328ddfe5079cec8a16e141f1ceb94702',
    'emit FaithfulVerdict': '519622792f0a9efb874baaf70ee5b9c936c2828f37271590ce9edaa083f5292e',
    'emit FundamentalReport': 'd53dde1a8737afb384b185170071a63dcf044b4499f774104fc053049ddf8a7f',
    'emit OpenVarietyReport': '660f76a8828133efe0a9f07a8383bda1aa59631f6846e667f5e5a9e0525f398c',
}


def test_cli_and_report_bytes_match_the_pins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    got = digests(tmp_path)
    assert {k: v for k, v in got.items() if GOLDEN.get(k) != v} == {}
    assert set(got) == set(GOLDEN)
