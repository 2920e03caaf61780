"""Golden bytes: the sha256 of every CLI output, in CSV and in JSON.

Any refactor must either keep these hashes or list each changed output, with
its largest absolute and relative change, in CHANGES.md. To see what moved,
write the output at both commits and diff the parsed columns.
"""
import hashlib
import json

import pytest

import qoptkit
from qoptkit.cli import build_parser, run

COMMANDS = {
    # the criterion-12 commands
    "sim-mz": ["simulate", "mz", "--trials", "4000"],
    "sim-noon-fringe": ["simulate", "noon-fringe"],
    "sim-hom": ["simulate", "hom"],
    "sim-hom-distinguishable": ["simulate", "hom", "--distinguishable"],
    "sim-homodyne": ["simulate", "homodyne", "--v-sqz", "0.5", "--eta", "0.8"],
    "sim-absorption": ["simulate", "absorption", "--heralded"],
    "sim-absorption-coherent": ["simulate", "absorption"],
    "fig-limits": ["figure", "fig-limits"],
    "fig-noon-loss": ["figure", "fig-noon-loss"],
    "fig-squeezed-loss": ["figure", "fig-squeezed-loss"],
    "fig-compare": ["figure", "fig-compare"],
    "fig-conditional-detector-bucket": [
        "figure", "fig-conditional", "--side", "detector",
        "--detector", "bucket"],
    # the rest of the command surface
    "fig-conditional": ["figure", "fig-conditional"],
    "limits": ["limits", "--n-sig", "100", "--eta", "0.9"],
    "limits-lossless": ["limits", "--n-sig", "3.5", "--eta", "1"],
    "noon-threshold": ["noon", "--threshold", "--n", "5"],
    "noon-optimal": ["noon", "--optimal", "--eta", "0.9"],
    "noon-optimal-bound": ["noon", "--optimal", "--eta", "0.999"],
    "noon-optimal-low": ["noon", "--optimal", "--eta", "0.3"],
    "noon-curve": ["noon", "--curve", "--eta", "0.9"],
    "noon-curve-lossless": ["noon", "--curve", "--eta", "1",
                            "--n-sig-points", "50"],
    "noon-flux": ["noon", "--flux", "--n", "5", "--target-rate", "1e12"],
    "noon-report": ["noon", "--n", "12", "--eta", "0.9", "--n-sig", "600"],
    "squeezed-optimal": ["squeezed", "--n-sig", "100", "--eta", "0.9"],
    "squeezed-v-sqz": ["squeezed", "--n-sig", "100", "--eta", "0.9",
                       "--v-sqz", "0.5"],
    "squeezed-alpha": ["squeezed", "--eta", "0.9", "--alpha", "10",
                       "--v-sqz", "0.5"],
    "compare": ["compare", "--eta-points", "20", "--n-sig-points", "30"],
    "condition-probe-nr": ["condition", "--side", "probe", "--detector",
                           "number-resolving", "--n-det", "3"],
    "condition-probe-bucket": ["condition", "--side", "probe", "--detector",
                               "bucket"],
    "condition-detector-nr": ["condition", "--side", "detector", "--detector",
                              "number-resolving", "--n-det", "3"],
    "condition-detector-bucket": ["condition", "--side", "detector",
                                  "--detector", "bucket"],
}

GOLDEN = {
    ("sim-mz", "csv"):
        "ea71c2c8221506c59bd9f8a417d41c59280dfc3060c457e75d6229e48d8afa08",
    ("sim-mz", "json"):
        "fda1c89a422c88d8bb04fbdd1f445822f3ad6077d71eb98c942c93dcc74f812f",
    ("sim-noon-fringe", "csv"):
        "79353dab06592442dcba26522e07c6b429439beae019ddc59628ef20685552f9",
    ("sim-noon-fringe", "json"):
        "ede09a098080705f783f5cc69f6b9aee5bebf10097712cb3a73f81b5e4bedd15",
    ("sim-hom", "csv"):
        "435b8d4e732d70d91f1c8c7518e07712caaea3f4f0b0076d61233e45dce88cab",
    ("sim-hom", "json"):
        "0087f2fd0f68959efe76f57ffd893d389654567f78275860867b27990b4bf2a1",
    ("sim-hom-distinguishable", "csv"):
        "bd8e13dc5705d1a0787d0a7a4f7006ceb9d37f5473c63dfbfe2df626bf3b6221",
    ("sim-hom-distinguishable", "json"):
        "422d64a09c18fa87f86eac4c4d8920db7a95b62329d83c4cf8ee544f9cc5c94a",
    ("sim-homodyne", "csv"):
        "2d243072947aafdaf95cc811cdc8a8ca2588b37e99902d22e1e91de1e436685b",
    ("sim-homodyne", "json"):
        "160f92dde8efe2c2ffd7562009e5bb3f611ee80bf8c7aac594c9fb0aa7a9d94f",
    ("sim-absorption", "csv"):
        "8c5833e21f409538ace521e3f2d8c2c811cfedf78ea1125d44f5732336dfba1c",
    ("sim-absorption", "json"):
        "66d6bf5bf02ad3fd3be9794ffcbad9bbf3aae5e8bee0a558dda046e088aa3cc3",
    ("sim-absorption-coherent", "csv"):
        "26df0cc1fb255c82a9c9b029c91450b1d772e6eb923e074716090ae3917593ab",
    ("sim-absorption-coherent", "json"):
        "093812d0234a44f315f4e4d1ec9f5d5e7b5c90ba9ea479fb2f4a2b6482164fd0",
    ("fig-limits", "csv"):
        "cbc71c5be24526c72d8dd1f9f4515d611abd02ea65b8084a1b236c405e594520",
    ("fig-limits", "json"):
        "a3eba4310c1cf6a2c88bcef09c001743e096e2462e52cc7de50ba38b16751227",
    ("fig-noon-loss", "csv"):
        "2d0da1b9551ff65970e7e6955c573cfe40e1f8d0c7be076475b6b9a176d1b77a",
    ("fig-noon-loss", "json"):
        "dcbda6bb206702fc7c29d3e1b0fbcb4eb9e1bd6009b2902dd614d93c02a7bb05",
    ("fig-squeezed-loss", "csv"):
        "afc34aefaa45bb7090548656b1ba5ac1325f87ea2e5268ecdd4a5b8f53a4a9dc",
    ("fig-squeezed-loss", "json"):
        "c3f70723c95284b969a43252e6cb5cc78224944880b6a19debec2c22cb2a0597",
    ("fig-compare", "csv"):
        "7dc630814ef815000a8b3b74e8828dce6b28c6bdbe2590ef34991083c69bbe02",
    ("fig-compare", "json"):
        "b2ac7f3540449fa1cd1c0e4d0fc4ff5c1ec64652cf55c5737ab56dd24433ff92",
    ("fig-conditional-detector-bucket", "csv"):
        "59f08613d3421669a95a4ea279995d3c9c4740ba42087881bc908cd0a01806d3",
    ("fig-conditional-detector-bucket", "json"):
        "c01f4a7a6d62c53f9ce6dd5c14696b62ac12bf14fb5822a9a2fa1481ce10afde",
    ("fig-conditional", "csv"):
        "c03bceb99e08af3a481b918ebeecabaaac8342033f5cd2a889b4ddacf1417028",
    ("fig-conditional", "json"):
        "82bf9ac6aa37598c07bc761a60c76b92f1ab66aef1c02440a26881f3874b3851",
    ("limits", "csv"):
        "1615a2a305023df536fcefbe0cda87dab5d69ba800733a867d29c46f58b8ba32",
    ("limits", "json"):
        "6c325f49e09bc10170b260d475f69445e42289ad62680d53dec533e955ab9b5e",
    ("limits-lossless", "csv"):
        "06e5d8e42cd4e2fdc2543007d5acde89d4ab069acf4d8a645ca510754fad4991",
    ("limits-lossless", "json"):
        "513c27c07ffae5a7edb4c562f7a285666f56fd00c8e54791890cdd1ca25efbf4",
    ("noon-threshold", "csv"):
        "793fa4b5ca1d7ae0146d001a118ef7252bd1bc4a79454b1b32f268b0ab226413",
    ("noon-threshold", "json"):
        "fb487f20ec87866e71a4cba1bb34b4d9e3577ca4e4fe23a07dcb13906e4db390",
    ("noon-optimal", "csv"):
        "ec0247cd241f5417cbd3d4ad4584bcc168b2332f941a5be96154f7bb8d126062",
    ("noon-optimal", "json"):
        "95654deaba3100c4b429038c752947256251e62d8db78f72d0cde09872a0e35d",
    ("noon-optimal-bound", "csv"):
        "d873625de39e48ef872d38dfe6378f512e2c9dcd0f0b854a6f24d9b0a781b4be",
    ("noon-optimal-bound", "json"):
        "61885e9134b2642b8cea223823652afd2eb2daa667f926d481367600c8891d43",
    ("noon-optimal-low", "csv"):
        "dfcbc2bebca9409654a0aff02d922f6f90ed525b7fabe7e7128e997e73d248a8",
    ("noon-optimal-low", "json"):
        "b5095587bf8e131a64cf43a79e5ada7c4a66efdcafa9acdd813f9f4fad70eae0",
    ("noon-curve", "csv"):
        "e9e49e67460e6a55968ba6318be8a135abbdb7d7e123a1f8ac52cf04c1b03acf",
    ("noon-curve", "json"):
        "c732a2ab47a0ccf09311d61b55efe4bfe7d63cfed9a0359d6527d767c7416f6c",
    ("noon-curve-lossless", "csv"):
        "0d6e429ebafc6fd37d2ee7d1db62001d5dd7698172e94d9a9d1bc6e0208bb216",
    ("noon-curve-lossless", "json"):
        "7042d218ac4f870847f0901dd62a77ee6b64b5a7586cf6c940916716a182c22e",
    ("noon-flux", "csv"):
        "6932de4a2d78e1e667cb0a0923cf10b76d2fc6d148a1e40f37823ca122808b27",
    ("noon-flux", "json"):
        "60e77c589f2c8e350ce7a1f75af5fe70d3b236a9e480207641658d534d3c0fc0",
    ("noon-report", "csv"):
        "ed1faa6af7000c609c39e990f049db2a176b134ae97634f03d0185286d2b582b",
    ("noon-report", "json"):
        "d242baa84408049443f72adb646c2de5ce8898c36ab3ca4108d98fbb219efb92",
    ("squeezed-optimal", "csv"):
        "13d9573f2f5d55b121a5a8dd53292686ff0a3e3e70d5cd297cd51bb36c5d3206",
    ("squeezed-optimal", "json"):
        "497c80bcbac30891ba9223025a9bd84fb6be2e37ccbcadca4c395fad2d638a93",
    ("squeezed-v-sqz", "csv"):
        "3af027534e2895595676945a3222a8662c2e374dc6a47e9787ae8c81288a2649",
    ("squeezed-v-sqz", "json"):
        "ee26bb25654b5a0d450fcdd22e45273d406fb7bd1805ec611fa132c2f3658331",
    ("squeezed-alpha", "csv"):
        "1d925f280e2f4b988a8ee05d07002c8907f842b6a5306557d3e1345976ea97f0",
    ("squeezed-alpha", "json"):
        "e3722b43362f39125ecdcbe7e192075b9d85af8cd24769edcced6720eb1f4114",
    ("compare", "csv"):
        "1dcd3e11a0f641aaeb16dbe278be2e1c856c2d9c801cfd061fc0b7d2aa47ee14",
    ("compare", "json"):
        "bde7137b96e0f8c1f0bf7d1f1ffb0796c505922674233452be3a9cfee7f0af09",
    ("condition-probe-nr", "csv"):
        "ce19914fe005236004760bf69310fa968f9eae83d40dbb2ceb021d16b057241a",
    ("condition-probe-nr", "json"):
        "2bc006fad9dc1f88134241cd0a01fd4e51dae06de6631df1a15f6ffc19a33eb1",
    ("condition-probe-bucket", "csv"):
        "d55f626d51bb0d75878db9c6607dc1fe589d22e6d5b5fbf6135ac4c5ffcf2853",
    ("condition-probe-bucket", "json"):
        "e543be5b6e14caf793f7b0be59e3281bdb9ce16d43a1d69f56f098a0451e8e5e",
    ("condition-detector-nr", "csv"):
        "d7ad65bc6827618d2bd257fec4df04d4a12bb7913db2e515ae201821a19a2673",
    ("condition-detector-nr", "json"):
        "f98d7747fdadb276c5647d0ebe042a7405674982f3e116bf77fb14b5ffeef9f0",
    ("condition-detector-bucket", "csv"):
        "59f08613d3421669a95a4ea279995d3c9c4740ba42087881bc908cd0a01806d3",
    ("condition-detector-bucket", "json"):
        "9f1a6e35afc4210e30179b293333e9213f70edfb2cf178b3270e26cfa0c81f5c",
}


def output_sha256(argv, fmt, path) -> str:
    assert run(argv + ["--format", fmt, "--out", str(path)]) == 0, argv
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_table_covers_every_command():
    assert set(GOLDEN) == {(name, fmt) for name in COMMANDS
                           for fmt in ("csv", "json")}


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN))
def test_output_bytes_unchanged(name, fmt, tmp_path):
    got = output_sha256(COMMANDS[name], fmt, tmp_path / f"out.{fmt}")
    assert got == GOLDEN[(name, fmt)], (name, fmt)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_metadata_records_version_and_parsed_arguments(name, tmp_path):
    argv = COMMANDS[name]
    path = tmp_path / "out.json"
    assert run(argv + ["--format", "json", "--out", str(path)]) == 0
    metadata = json.loads(path.read_text())["metadata"]
    parsed = vars(build_parser().parse_args(argv))
    del parsed["format"], parsed["out"]
    assert metadata["qoptkit_version"] == qoptkit.__version__
    assert list(metadata["arguments"].items()) == list(parsed.items())
