"""Byte snapshots of the README's command examples in every output format.

Each example in the README's ``sh`` block (except ``verify all``, which the
acceptance tests cover) runs in text, csv and json; the exit code and the
sha256 of stdout must match the digests below.  They pin outputs the
benchmark goldens do not, such as ``oracle`` text and csv, ``cycle-poly
--z``, ``measure --z`` and ``decompose`` text.  ``verify <suite> --format
json`` is pinned too, at default limits and at ``--max-n 5``, with its
``elapsed`` line left out, and so is ``measure --z`` at n = 16, where the
alpha vectors have many terms.  ``decompose`` text is pinned at its command
limit as well, on the largest character table the CLI admits.  Re-record a
digest only for a deliberate change of output.
"""

import hashlib
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from braidchar.cli import main
from braidchar.tables import COMMAND_LIMITS

README = Path(__file__).resolve().parents[1] / "README.md"
FORMATS = ("text", "csv", "json")


def readme_commands() -> list[tuple[str, ...]]:
    """Arguments of each ``braidchar`` example in the README, minus ``--format``."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.splitlines():
            words = line.split("#", 1)[0].split()
            if words[:1] != ["braidchar"] or words[1:2] == ["verify"]:
                continue
            if "--format" in words:
                at = words.index("--format")
                del words[at : at + 2]
            commands.append(tuple(words[1:]))
    return commands


CASES = [args + ("--format", fmt) for args in readme_commands() for fmt in FORMATS]

DIGESTS = {
    "measure --n 5 --format text":
        "a0d4b2d44cfb0ccd3424ec402b835e32253149d21b977d92d9f9ed4ae1e5f2dd",
    "measure --n 5 --format csv":
        "3d57602475411554c138f0552b786848cba1234b3cf917dd19e30f3ca4987f99",
    "measure --n 5 --format json":
        "1ff9a67aea450201ab99bd26ebec6d230a48f089d279fb11c8d38b95ed3e0d3e",
    "measure --n 5 --z -1 --format text":
        "ddb98459ec58ce76387b9651f142179b83bbb3c1ebc66148205a1b977e5fdd4a",
    "measure --n 5 --z -1 --format csv":
        "91955696da216e5d67d914529caa4c385dd9c44d43421a772be3ed4f38895001",
    "measure --n 5 --z -1 --format json":
        "1937298d5bd0dc5e208943c227fc0542d3458b57108aea2cd6d5acbeec96e4dd",
    "cycle-poly --lambda 2,1,1 --z 7 --format text":
        "683a6144c307c67ef217860e286626e8a944d271087f393eaedfe74f1b748278",
    "cycle-poly --lambda 2,1,1 --z 7 --format csv":
        "254d130afc9caa181d41cd308b98a1080ff1edca718e228e3a1f19c9369718c9",
    "cycle-poly --lambda 2,1,1 --z 7 --format json":
        "7b5da4381df7d4762a93b8eac53c68ccc2e8e9d2a1da85d21a3180988ca15350",
    "hchar --n 4 --format text":
        "528f2f2ee536f3e2182d3fd1019321d585dcb9b2c61852356c0e0cde46718423",
    "hchar --n 4 --format csv":
        "2f26763e0f778eb9f7db2ae576685b8fb648476e21066839124956686cc47ce8",
    "hchar --n 4 --format json":
        "e5f2e035bd63900b041e31644f994a4345081eb1d21a259a513053c0ea261551",
    "achar --n 5 --k 2 --format text":
        "9b4e46fc35382dd2b99cb158f39933cbb527cd7fec16f6cf65695ec390cd4de1",
    "achar --n 5 --k 2 --format csv":
        "d360745527093b68ce2d5cf0c31bc8568e5eb274a2ceb9981c0630c8fa22f312",
    "achar --n 5 --k 2 --format json":
        "cd0e6a62186c7edf8d4f0a9a3a36f4b93e6d76356826fbf19a1bc0cfd3e86815",
    "decompose --n 5 --k 2 --which a --format text":
        "dab4c87acb6a96ed036a72075f9cb1a02edd3904b1d433f7e009bfc733a7527f",
    "decompose --n 5 --k 2 --which a --format csv":
        "2679ae07bfcbae54964e81315ae560571ad957b7fbc5376e2a4ffd7689dd31b7",
    "decompose --n 5 --k 2 --which a --format json":
        "3105a79310d4e454b5930b4f329c755ce2ee5c9ca313196deb43885ec8ee1ac3",
    "decompose --n 4 --which b --m 1 --format text":
        "9cca647559a77d4a3ea3d04ae59af67b8f95ca94c3d6a656448fa93eacb00f88",
    "decompose --n 4 --which b --m 1 --format csv":
        "11fc0c8024c104f3ef724a73ff74b841bb8773bf23047b6051456b51ae3147d8",
    "decompose --n 4 --which b --m 1 --format json":
        "e4e968ec7fa638c1b4595deeefc8fc622aaad6e5c48c6521d69b75afd4a11968",
    "oracle --p 3 --n 4 --format text":
        "7ba0e19cc1861231305cb05967470c8c9acfbad033986174715c09af22623822",
    "oracle --p 3 --n 4 --format csv":
        "bcbdfc7156d9a80994896264fedd14adc16001ab49ec527330aea31826ee6d88",
    "oracle --p 3 --n 4 --format json":
        "9ef2b8039c5b9000d7761733d06f0a47e17c4acbb7994ee013290fd76763fbec",
    "table a2-decomp --max-n 9 --format text":
        "063baeff0c062c6b7dd211075828656e0349abe4c990214674ceebbdcab4b979",
    "table a2-decomp --max-n 9 --format csv":
        "e6b6fab821ac2b8a6956f90b435f825b91cc82a6b4cf48243686ef6023b2a1ce",
    "table a2-decomp --max-n 9 --format json":
        "ab471b2fd31c60d85c08a68084f72493c261a601c0000a92a231100872dc9d2e",
}


def test_every_readme_command_is_pinned():
    assert {" ".join(args) for args in CASES} == set(DIGESTS)


@pytest.mark.parametrize("args", CASES, ids=" ".join)
def test_readme_command_output_bytes(args):
    res = CliRunner().invoke(main, list(args))
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == DIGESTS[" ".join(args)]


VERIFY_DIGESTS = {
    "verify tables --format json":
        "5b00adc6be2548a2ae5c5ef3c609d520cb14156a064b659c87bb5c2a5ed79665",
    "verify tables --max-n 5 --format json":
        "ea0c3b80664fcec1314e5fb3593e91a74d05a7dd076ac5957c1eee19228cdc67",
    "verify identities --format json":
        "b1d777edb4f426be65dd35ff0bd696535b617524ad56fa9cdcf125617e19d1d4",
    "verify identities --max-n 5 --format json":
        "7c90524360eea2a7515ea7aeba64b87254ea4ccb7b28ed0f9d5406cc4385a61a",
    "verify support --format json":
        "a14e8d234278f3d8ff3d3f433a1797d4dc876e2af6b95c9c3ea6ea063d7a48d7",
    "verify support --max-n 5 --format json":
        "2195faa5c55f31a9946192f784a293e85b4ba9a9565adeebce8576da073353bd",
    "verify regular-rep --format json":
        "8c9201ee878c45bc11762fb0afb8c5ec8fa025ac1aff796d9f180c8128af2403",
    "verify regular-rep --max-n 5 --format json":
        "d2dbc08a845dc94f753ebe401cb83575e3fdfe48450f88c8afdd3551a26ed856",
    "verify stability --format json":
        "73b7fb05abd1a1d273db3efcb4cb96ad3a600658c6cce373932abbbdca8acda5",
    "verify stability --max-n 5 --format json":
        "125155881d591afc1380978c1f32ed8ac8568acbd104de79a33a957d083d3bb0",
}


MEASURE_DIGESTS = {
    "measure --n 16 --z -1/3 --per-element --format json":
        "4d910e3419b3bff7f0cc89da07726522cdbe9248c20edf3069c1e03fcb083ebd",
    "measure --n 16 --z 7/2 --format csv":
        "476f46f6dda250a4ea8f441049e48a490b0b75e729e6904d3866e17470f05d15",
}


@pytest.mark.parametrize("command", sorted(MEASURE_DIGESTS))
def test_measure_bytes_at_sixteen(command):
    res = CliRunner().invoke(main, command.split())
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == MEASURE_DIGESTS[command]


LIMIT_DIGESTS = {
    "decompose --n 24 --which a --k 12":
        "6e9318404acbd830f5cf0df3b07e9a70b62f9be9287b1f8515b0e423213afb6b",
    "decompose --n 24 --which b-diff --m 1000":
        "8a229df9b40e2573d5869d4564f5bf49e12c59968199e93d4a4894609cb80c02",
}


@pytest.mark.parametrize("command", sorted(LIMIT_DIGESTS))
def test_decompose_bytes_at_the_command_limit(command):
    assert f"--n {COMMAND_LIMITS['decompose']} " in command
    res = CliRunner().invoke(main, command.split())
    assert res.exit_code == 0, res.output
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == LIMIT_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(VERIFY_DIGESTS))
def test_verify_json_bytes(command):
    res = CliRunner().invoke(main, command.split())
    assert res.exit_code == 0, res.output
    stdout = re.sub(r'\n  "elapsed": [^\n]*', "", res.stdout)
    assert hashlib.sha256(stdout.encode()).hexdigest() == VERIFY_DIGESTS[command]
