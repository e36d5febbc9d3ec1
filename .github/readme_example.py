"""Run the README's ``## Library`` code block as written, so that an API
change the docs do not follow fails.

    PYTHONPATH=src python -W error .github/readme_example.py

Run it from the root of a checkout.
"""

import re
from pathlib import Path

readme = Path("README.md").read_text(encoding="utf-8")
block = re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.S | re.M).group(1)
exec(compile(block, "README.md, ## Library", "exec"))
