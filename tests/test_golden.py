"""Golden bytes: the sha256 of every CLI output, in CSV and in JSON.

Any refactor must either keep these hashes or list each changed output, with
its largest absolute and relative change, in CHANGES.md. To see what moved,
write the output at both commits and diff the parsed columns.
"""
import hashlib

import pytest

from qoptkit.cli import run

COMMANDS = {
    # the criterion-12 commands
    "sim-mz": ["simulate", "mz", "--trials", "4000"],
    "sim-noon-fringe": ["simulate", "noon-fringe"],
    "sim-hom": ["simulate", "hom"],
    "sim-homodyne": ["simulate", "homodyne", "--v-sqz", "0.5", "--eta", "0.8"],
    "sim-absorption": ["simulate", "absorption", "--heralded"],
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
        "c2c0e61f604e73f8c023bf4a7ac78aa86e4c6e9129ca40322f9f626eb891bac8",
    ("sim-noon-fringe", "csv"):
        "79353dab06592442dcba26522e07c6b429439beae019ddc59628ef20685552f9",
    ("sim-noon-fringe", "json"):
        "98cc00edd94840663cf586bb817ebe8d0af033b11164021a8de105ebb5601b5a",
    ("sim-hom", "csv"):
        "435b8d4e732d70d91f1c8c7518e07712caaea3f4f0b0076d61233e45dce88cab",
    ("sim-hom", "json"):
        "1bb31771afe38a4b36c08959451ee184945de851c0733a69e49c659720adef9a",
    ("sim-homodyne", "csv"):
        "2d243072947aafdaf95cc811cdc8a8ca2588b37e99902d22e1e91de1e436685b",
    ("sim-homodyne", "json"):
        "255cf354219297e2aef9bcd7d5e5d39195f012c1ff20466acd424e5366344260",
    ("sim-absorption", "csv"):
        "8c5833e21f409538ace521e3f2d8c2c811cfedf78ea1125d44f5732336dfba1c",
    ("sim-absorption", "json"):
        "adbbc2eb6d1826f4e8168aa138ecb995cdc32b084fd6b957533d7f662b1927e1",
    ("fig-limits", "csv"):
        "cbc71c5be24526c72d8dd1f9f4515d611abd02ea65b8084a1b236c405e594520",
    ("fig-limits", "json"):
        "b8a09d0a70b8de9e4e2355ecf79a8747a5563e385c862976f1ebdc113f6aebb2",
    ("fig-noon-loss", "csv"):
        "2d0da1b9551ff65970e7e6955c573cfe40e1f8d0c7be076475b6b9a176d1b77a",
    ("fig-noon-loss", "json"):
        "71c3a97b805f52001e31440f01bf120fb5503f4f82828cb569e0cebc45c512c2",
    ("fig-squeezed-loss", "csv"):
        "afc34aefaa45bb7090548656b1ba5ac1325f87ea2e5268ecdd4a5b8f53a4a9dc",
    ("fig-squeezed-loss", "json"):
        "4873163289f51dfc2be754fef82cf37fefcd81f9153ff5c2e82596fc4a027006",
    ("fig-compare", "csv"):
        "3836193858f0c83c03490c14543210d8812bcce167609ae734769c3019ecc33d",
    ("fig-compare", "json"):
        "c41bdd81687cf092085940c257e27768539b1a1a88bc4ef5e046007db641ff2a",
    ("fig-conditional-detector-bucket", "csv"):
        "c9bdafe3e6837c76817200d52839222ef65d1c6ecbf66f9490769865b0657d7e",
    ("fig-conditional-detector-bucket", "json"):
        "a1d9a891b1e0e8feca8a6a269cd8387a16e2cb0cb2c1df44c763686a6900d000",
    ("fig-conditional", "csv"):
        "c03bceb99e08af3a481b918ebeecabaaac8342033f5cd2a889b4ddacf1417028",
    ("fig-conditional", "json"):
        "02d58a7d51b209c9d1305bc96bcf0d6f4dce053cc7c23d834db7397e915b3635",
    ("limits", "csv"):
        "1615a2a305023df536fcefbe0cda87dab5d69ba800733a867d29c46f58b8ba32",
    ("limits", "json"):
        "d4165b50d6ce3b1fd8e4e6d23a6111fb180ff9db63ccfa82f62c7158cac1e606",
    ("limits-lossless", "csv"):
        "06e5d8e42cd4e2fdc2543007d5acde89d4ab069acf4d8a645ca510754fad4991",
    ("limits-lossless", "json"):
        "79471de90e20a55f822d01179986956959e65e61793f4759800f9086122652cc",
    ("noon-threshold", "csv"):
        "793fa4b5ca1d7ae0146d001a118ef7252bd1bc4a79454b1b32f268b0ab226413",
    ("noon-threshold", "json"):
        "9bb551295f9821a54f9b255e363c40a93b320d47f7dfb20d5a335394324e0359",
    ("noon-optimal", "csv"):
        "ec0247cd241f5417cbd3d4ad4584bcc168b2332f941a5be96154f7bb8d126062",
    ("noon-optimal", "json"):
        "f274d01ed7981ce5b2af12ff6d3a7c4319a646ca98d86d98eca8cbce15c71c13",
    ("noon-optimal-bound", "csv"):
        "d873625de39e48ef872d38dfe6378f512e2c9dcd0f0b854a6f24d9b0a781b4be",
    ("noon-optimal-bound", "json"):
        "e2d29e3ade7b51eb3d89ef84bad93ac27b0dc15495564c9038129e33ed058cee",
    ("noon-optimal-low", "csv"):
        "dfcbc2bebca9409654a0aff02d922f6f90ed525b7fabe7e7128e997e73d248a8",
    ("noon-optimal-low", "json"):
        "74ddb44297bb93a666a9ebe7d0457e0516b58d131917e39d7c78d9f9335160d9",
    ("noon-curve", "csv"):
        "e9e49e67460e6a55968ba6318be8a135abbdb7d7e123a1f8ac52cf04c1b03acf",
    ("noon-curve", "json"):
        "234ddf0a57402f6a1b8af50a90764c0f4b68f4a3e25ab21459d5509145593b58",
    ("noon-curve-lossless", "csv"):
        "0d6e429ebafc6fd37d2ee7d1db62001d5dd7698172e94d9a9d1bc6e0208bb216",
    ("noon-curve-lossless", "json"):
        "19f6005d7ba3714997bee39b5b6c2deadf27db90f0227b56b7435f35d9279e72",
    ("noon-flux", "csv"):
        "6932de4a2d78e1e667cb0a0923cf10b76d2fc6d148a1e40f37823ca122808b27",
    ("noon-flux", "json"):
        "7ae54ec22827cc4475c1b30870be81bde7ae22c8991a9959d17218a2a223b3a5",
    ("noon-report", "csv"):
        "ed1faa6af7000c609c39e990f049db2a176b134ae97634f03d0185286d2b582b",
    ("noon-report", "json"):
        "bfe5314d75c408440b7bfc086401f810b0fcd9fc740460304d92b30db07a8606",
    ("squeezed-optimal", "csv"):
        "13d9573f2f5d55b121a5a8dd53292686ff0a3e3e70d5cd297cd51bb36c5d3206",
    ("squeezed-optimal", "json"):
        "7067235f9d4af155550ff5675b2192ca62293a3313f74d864f8cc38f9b354295",
    ("squeezed-v-sqz", "csv"):
        "3af027534e2895595676945a3222a8662c2e374dc6a47e9787ae8c81288a2649",
    ("squeezed-v-sqz", "json"):
        "0a28ea34cd250f06104cc68bcd6702f31d6bac7ba778250948a12aa7c98ed76b",
    ("squeezed-alpha", "csv"):
        "1d925f280e2f4b988a8ee05d07002c8907f842b6a5306557d3e1345976ea97f0",
    ("squeezed-alpha", "json"):
        "6cb906efbec3f2f54085a6534e3fbeaf8925e3e17c7e87f361f5ca6a0ca5b0df",
    ("compare", "csv"):
        "1dcd3e11a0f641aaeb16dbe278be2e1c856c2d9c801cfd061fc0b7d2aa47ee14",
    ("compare", "json"):
        "36c19207f97f2e0700d5d5c0774f4deef8f53343366c694c39111af548ce1968",
    ("condition-probe-nr", "csv"):
        "ce19914fe005236004760bf69310fa968f9eae83d40dbb2ceb021d16b057241a",
    ("condition-probe-nr", "json"):
        "324820146399a07ff912ee4186394e51bd4b9585ae29f1d8fec5429a39042eda",
    ("condition-probe-bucket", "csv"):
        "d55f626d51bb0d75878db9c6607dc1fe589d22e6d5b5fbf6135ac4c5ffcf2853",
    ("condition-probe-bucket", "json"):
        "dcc0fce38307d186983d537bc2f6afb7b89e33a42266da0dc1f632622b07c32e",
    ("condition-detector-nr", "csv"):
        "d7ad65bc6827618d2bd257fec4df04d4a12bb7913db2e515ae201821a19a2673",
    ("condition-detector-nr", "json"):
        "ab6aab5042f37502d5445a1d03de0c00bb867e5981eba049520e2c783d791120",
    ("condition-detector-bucket", "csv"):
        "c9bdafe3e6837c76817200d52839222ef65d1c6ecbf66f9490769865b0657d7e",
    ("condition-detector-bucket", "json"):
        "a1d9a891b1e0e8feca8a6a269cd8387a16e2cb0cb2c1df44c763686a6900d000",
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
