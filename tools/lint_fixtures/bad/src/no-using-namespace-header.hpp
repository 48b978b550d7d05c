// lint.census fixture: no using-directive in a src/ header.
#pragma once
using namespace std;
