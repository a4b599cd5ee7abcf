"""The wire format, pinned: every subcommand runs in process on the fixed
requests of ``fixtures/wire_requests.json`` (over Z, F_3[x] and
F_p[x] for p = 2^64 + 13, with Z entries and polynomial coefficients
above 2^53), and two suite reports record forced failures with their
instances.  The SHA-256 of each output file must equal the value
recorded here, so a renamed result field, a changed key or a changed
integer encoding fails the test."""

import hashlib
import json
from pathlib import Path

import pytest

from koszulkit import suites
from koszulkit.cli import _COMMANDS, main

REQUESTS = json.loads((Path(__file__).parent / "fixtures" / "wire_requests.json").read_text())

PINNED = {
    "snf-Z-big": "8574532b2769d58553432212b948c601157d488a296e53197da412e174dcd0ce",
    "snf-bigp": "e6f66e639d285cdfbcbe90323c9915e19e6dcc9c2b26d7a8e1e23abefc9c6d2f",
    "homology-Z-big": "66fb836c0c6da384587d8cca9677fa1b307a58bdf67ef39edff1458b2b28c426",
    "homology-bigp": "56aba528c94e43f52cb813f16d938b177797c29b3f7736f8aa7350050a09563d",
    "k0-Z-big": "6bbf541a489976443af65fccdf9671ea9040f6874138c3b2d1387f940b685aa5",
    "k0-bigp": "cca74d69095fb9f04e8237b1cb7165da84c3cfff3780250354c88f6c1ca3d63f",
    "eddecompose-Z-big": "c58f46c545936b8aa5e9b382d8767afcfbd2ffa1fca68eb678f159beb23d5041",
    "eddecompose-bigp": "cf9593879a9abc05aa83dfef60a3ddf3468a871f27bbb5a58d86697465cdc210",
    "snf-Z": "7f35b267610be488b239192f39ece4166881e56a0e56ad0ca820cfd917d789de",
    "homology-Z": "dc64ddada153e9fd43bdc6a8a96b8d1d33bb790006c14d880ae0cdc9750ae815",
    "k0-Z": "0d53f67a50c98e3794f54eeaad4f2957bc6e3412085661678502e2d4e8485576",
    "eddecompose-Z": "0c70c8128c54c1d0e31b810a40317bf462fc211d81c6c09eb1ba4fe8981e1ae1",
    "factorize-Z": "44b7f9eeda9fe4951a2755adc44d45e18a57527a5e67982637f69610c0b8930d",
    "cone-Z": "e4dc96adfb23629dc8a2c1f857d17dc86a9e28b4f04da5c282fc095923524ca7",
    "cyl-Z": "60240cedf40f90f001c24faad07f536b9606f5ed62537fc3df89305337a7ed5e",
    "split-Z": "a90442f667e4352e09566035b15a536de0a56d628b8344244d415f4a5a6dde03",
    "truncate-ge-Z": "9929d9ac0d7fcde0bc10213e24175025150a0381b7d57156f1f2a23ba24cad90",
    "truncate-le-Z": "655560dc95a74e6d1b3ebbef83e547607324dc1949c0c0f0693430bd6edf4192",
    "kappa-Z": "54d9c618542d679a779c1136ec023c525bee892211d9a18d69804fad8b8dfeb7",
    "excise-Z": "2b08a550aeb57044d71e1c68dc860f94d83052c3ead2528e733c61f67318b355",
    "resolve-Z": "cb4085986e88dd72bad235393a7ef516002f2603b10c872838e568e1285ca53d",
    "efunctor-Z": "a01495f5f25797badddd0d387ddcc87203aac8e5db792244803eb34c7fe8c7d8",
    "snf-fpx3": "841c5d031eeab5c08207019f6cd008cc707f4c821c22ecad4a85f685c0798974",
    "homology-fpx3": "48b6f265b26d016f72a913662ae3c61f22033a6dc6e909de9310ad176e8a0e92",
    "k0-fpx3": "ff0081194c51a8064471dc93e5ad5d30f2b14e21bc05608c49d650c81bc0f110",
    "eddecompose-fpx3": "ba2e67a9619c3597c3f6f05cd1bea220f385b355a73b6131d591430931b279f3",
    "factorize-fpx3": "ef28c77e6a14714b8feeba50cde9fa74a43efe16e09cebb4ea1323cfa7eb6dd6",
    "cone-fpx3": "205ec351c4e766f35a9f809013205aeea8ef9a5f9b465b3a8d235aa3a88d8619",
    "cyl-fpx3": "75ca63725678e84b93e832ed6836d0c93d227e4e540277465e4d1fa2c276c36f",
    "split-fpx3": "0c5eb2f4bfa2a45130f40b2bb0a220dcba83b5fc652ad5b53781ecf5e96e2988",
    "truncate-ge-fpx3": "08d139bc17e171b046c047379a8af02cd9c6543f4b7e5b9a822bc62e91f3e6da",
    "truncate-le-fpx3": "edca18bd45c091a3414141b33f2eae1bccb93bde950df94ff449963a5aa9a5b6",
    "kappa-fpx3": "bbfde47f5fa70d30df631f33dce938df088249d448c938db8b47eab2c14b7646",
    "excise-fpx3": "61abb65590f6c48a042c68559800b3587825dc1571846818d2c66367a15fb7e6",
    "resolve-fpx3": "e78741b77dfc95a91267d1f21127398ad1905eb12cefc3d5cd045d7dc09c8c2e",
    "efunctor-fpx3": "62059ed0178e523b92bbbcd95b77c7cb58431319e02a619d78fa34416a71782a",
    "suite-lemma2_4-Z": "d436d9292a00487c54c9b823f53f1fea6fd056978f4d56a5a71a40871a215979",
    "suite-appendix_a2-fpx3": "25430bde058349d1a6ba1f709262722ef7c18833112b4d70182b8a8311dca432",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_subcommand_is_pinned():
    assert {request["argv"][0] for request in REQUESTS} == set(_COMMANDS)
    assert [request["label"] for request in REQUESTS] == list(PINNED)[:len(REQUESTS)]


@pytest.mark.parametrize("request_", REQUESTS, ids=[request["label"] for request in REQUESTS])
def test_subcommand_output_is_pinned(tmp_path, request_):
    src, dst = tmp_path / "in.json", tmp_path / "out.json"
    src.write_text(json.dumps(request_["input"]))
    assert main([*request_["argv"], "--in", str(src), "--out", str(dst)]) == 0
    assert _digest(dst) == PINNED[request_["label"]]


# A suite whose check is forced to fail, and the ring it runs over.
SUITE_REPORTS = {
    "suite-lemma2_4-Z": ("lemma2_4", "Z", "cobase_change_check"),
    "suite-appendix_a2-fpx3": ("appendix_a2", "fpx:3", "extension_closure_check"),
}


@pytest.mark.parametrize("label", SUITE_REPORTS)
def test_suite_report_is_pinned(monkeypatch, tmp_path, label):
    name, ring, check = SUITE_REPORTS[label]
    monkeypatch.setattr(suites, check, lambda *args: False)
    dst = tmp_path / "report.json"
    assert main(["suite", name, "--ring", ring, "--seed", "4", "--trials", "2", "--out", str(dst)]) == 1
    assert _digest(dst) == PINNED[label]
