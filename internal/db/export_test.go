package db

// PlainCSV reports whether the reader splits data in place (see plainCSV).
var PlainCSV = plainCSV
