"""File helper tests: atomic writes."""

import pytest

from claimaudit._files import write_atomic


class TestWriteAtomic:
    def test_parts_are_written_in_order(self, tmp_path):
        write_atomic(tmp_path / "sub" / "out.txt", iter(["a", "", "bc\n"]))
        assert (tmp_path / "sub" / "out.txt").read_text(encoding="utf-8") == "abc\n"

    def test_a_part_that_raises_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old bytes\n")

        def parts():
            yield "new first part\n"
            raise RuntimeError("writer failed")

        with pytest.raises(RuntimeError, match="writer failed"):
            write_atomic(target, parts())
        assert target.read_bytes() == b"old bytes\n"
        assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]
