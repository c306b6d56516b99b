"""tools/linecensus.py on a toy module, without running pytest inside pytest."""

import importlib.util
import sys
import textwrap
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "linecensus.py"
_spec = importlib.util.spec_from_file_location("linecensus", _TOOL)
linecensus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecensus)

TOY = textwrap.dedent('''\
    LIMIT = 3


    def taken(x):
        if x > LIMIT:
            return "big"
        return "small"


    def never():
        return 1


    class Box:
        size = 2

        def get(self):
            return [v for v in range(self.size)]
''')


def test_census_lists_the_function_lines_that_did_not_run(tmp_path):
    (tmp_path / "toy.py").write_text(TOY)

    def run():
        spec = importlib.util.spec_from_file_location("toy", tmp_path / "toy.py")
        toy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(toy)
        assert toy.taken(1) == "small"
        assert toy.Box().get() == [0, 1]

    before = sys.gettrace()
    missing = linecensus.census(tmp_path, run)
    assert sys.gettrace() is before
    # the untaken branch and the uncalled function's body (its def line ran
    # at import); module and class body lines (1, 14, 15) are not counted
    assert missing == {str((tmp_path / "toy.py").resolve()): [6, 11]}
    assert linecensus.executable_lines(tmp_path / "toy.py") == {4, 5, 6, 7, 10, 11, 17, 18}
