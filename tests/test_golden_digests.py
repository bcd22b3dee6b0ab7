"""Byte-identity gate: the sha256 of eleven CLI outputs is pinned.

A change that alters any of them on purpose updates its digest here and
says why in CHANGES.md, as is done for the golden Boogie file."""

import hashlib
import json

import pytest

from mbc.autotest import FaultReport, replay
from mbc.cli import main
from mbc.containers import CONTAINER_NAMES, FaultSwitch
from mbc.contracts import REGISTRY, expand_frame

pytestmark = pytest.mark.bytegate

GOLDEN = {
    "complete": (
        ["complete", "--all"],
        0, "ad6afe0ff4a01754d18e1e9e624c9d3ed6180d4109a96ed2c672f59c2db37074"),
    "adequacy": (
        ["adequacy", "--all"],
        0, "c47ccb06f7ae7e534d2bd446ed9784ba6a9db5910fb1779fa4e0003765501d4f"),
    # The two outputs of the benchmark's exhaustive workload.
    "complete-max-size-2": (
        ["complete", "--all", "--max-size", "2"],
        0, "f174ce14652a161a0b30cfc866323599c5e86a1912a6146464ccc882f2f3638f"),
    "adequacy-max-size-2": (
        ["adequacy", "--all", "--max-size", "2"],
        0, "a66f6780183e769817d951dd0f86ed7a18e424633c62e934b90e69c46fd038f5"),
    # The one pinned output with adequacy failures: at depth 1 Dispenser,
    # Stack and Queue fail minimality.
    "adequacy-depth-1": (
        ["adequacy", "--all", "--depth", "1"],
        1, "c991b2c87b375a2b5cbebee2eb120c2fbfffed9cd94d4099722fcfb5900259b5"),
    "campaign": (
        ["test", "--all", "--calls", "20000", "--seed", "7"],
        0, "c8d4d890a74b5fee6ce2f7fced70e4723199dbdbac0712dc4faeaf51f01b4ae3"),
    "complete-universe-3": (
        ["complete", "--all", "--universe", "3", "--max-size", "2"],
        0, "9962c1ad0f8f52602b4a04ae6cc6563317eaf3f84f87614430e2f9a804425ce3"),
    # The largest scope pinned, at the default size bound.
    "complete-universe-4": (
        ["complete", "--all", "--universe", "4"],
        0, "75bf8eb88c08ef2857f91bf8112d9c00aef3baa16b2c25ea830abbd6a4a69464"),
    "report": (
        ["report", "--all", "--max-size", "2", "--calls", "2000",
         "--seed", "7"],
        0, "7eb37f6a3b23bee2d9138e71f2bc7f34d9d4abd30b89f843db1a5f25dff7b7c8"),
    "fault-campaign": (
        ["test", "--target", "LinkedList", "--inject",
         "merge_right_missing_link", "--calls", "3000", "--seed", "0"],
        1, "0c29230c483e558af39a419a5020be01662fb316b721f24374fdfb24689e161b"),
    "classic-campaign": (
        ["test", "--all", "--calls", "3000", "--seed", "3", "--mode",
         "classic"],
        0, "8db7c8c6feeb87f8137386ce9ae0557c5022b7758ad941abae334480a03e04ee"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_digest(name, tmp_path):
    argv, exit_code, digest = GOLDEN[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_fault_reports_replay_from_the_written_file(tmp_path):
    # The bytes on disk, not the objects in memory, reproduce each clause.
    argv, exit_code, _ = GOLDEN["fault-campaign"]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == exit_code
    stats, *lines = out.read_text(encoding="utf-8").splitlines()
    assert lines and len(lines) == json.loads(stats)["stats"]["violations"]
    for line in lines:
        report = FaultReport(**json.loads(line))
        v = replay(report, faults=FaultSwitch(merge_right_missing_link=True))
        assert v.clause == report.violation["clause"]


# Each feature's effective model and classic clauses, as (id, tag, target
# of a defining clause): a command's after frame expansion, a query's and a
# constructor's as written.  Only a violation shows a clause id in the
# outputs above, so this pins the frame clauses no run happens to break.
CLAUSE_LISTS = (
    "54f257a325143b379202e31ef421a96c8e2bd514815f65df32089bc4082e77b3")


def test_effective_clause_lists_digest():
    lists = []
    for name in CONTAINER_NAMES:
        spec = REGISTRY[name]
        for f in list(spec.features.values()) + list(spec.constructors):
            clauses = expand_frame(f, spec.signature)
            lists.append([name, f.name, [
                [c.cid, c.tag, c.target if c.expr is not None else None]
                for c in clauses]])
    assert len(lists) == 58
    text = json.dumps(lists, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CLAUSE_LISTS


# Each feature's declaration, as (container, name, kind, argument domains,
# result domain, the sorted queries not defined that its frame leaves free
# because it constrains a defined query, incompleteness tag, whether it
# has a precondition), for all 58 features, constructors included.  The
# clause lists above do not show a domain or a tag, so a spec rewrite
# must not change one silently.
DECLARATIONS = (
    "c14b23713f291572c0a1a9d8b2cdda511e764a4af35eae18d6513539643648d8")


def test_feature_declarations_digest():
    decls = []
    for name in CONTAINER_NAMES:
        spec = REGISTRY[name]
        sig = spec.signature
        for f in list(spec.features.values()) + list(spec.constructors):
            free = (sorted(set(sig.names) - sig.defined)
                    if f.kind == "command"
                    and any(c.target in sig.defined for c in f.clauses)
                    else [])
            decls.append([name, f.name, f.kind, f.arg_domains,
                          f.result_domain, free,
                          f.incompleteness_tag, f.pre is not None])
    assert len(decls) == 58
    text = json.dumps(decls, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DECLARATIONS
