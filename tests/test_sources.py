from pathlib import Path

import liesegang

PACKAGE_DIR = Path(liesegang.__file__).resolve().parent


def test_package_sources_are_ascii():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    offenders = []
    for path in sources:
        try:
            path.read_bytes().decode("ascii")
        except UnicodeDecodeError as exc:
            offenders.append(f"{path.name}: non-ASCII byte at offset {exc.start}")
    assert not offenders, offenders
