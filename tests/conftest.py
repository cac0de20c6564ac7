import pytest

# what each tail does to a file's last line, and the start of the error it gives
UNREADABLE_TAILS = {
    "oversized": (lambda month: f"{month},{'9' * 200_000}\n".encode(), "field larger than field limit"),
    "undecodable": (lambda month: f"{month},".encode() + b"\xff\n", "'utf-8' codec can't decode"),
}


@pytest.fixture(params=sorted(UNREADABLE_TAILS))
def unreadable_after_bad_row(request, tmp_path):
    """A monthly-series file with a bad value on line 2 and an unreadable last line.

    About 20,000 good rows sit between the two, so a reader that raises on
    the first bad row never reaches the last line. Returns the path and the
    start of the read error's text.
    """
    tail, error = UNREADABLE_TAILS[request.param]
    months = [f"{2000 + i // 12}-{i % 12 + 1:02d}" for i in range(20_002)]
    rows = "".join(f"{m},{i}.5\n" for i, m in enumerate(months[1:-1]))
    path = tmp_path / "series.csv"
    path.write_bytes(f"month,value\n{months[0]},x\n{rows}".encode() + tail(months[-1]))
    return path, error
